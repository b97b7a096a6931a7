"""Command-line interface.

Three commands:

    entpow eval PATH      evaluate an operator file, print all measures
    entpow sweep ...      sweep a built-in family, write CSV
    entpow verify ...     run the built-in verification suite

Exit codes: 0 success, 1 validation error (bad file or flags), 2 check
failure (a failed verification or a non-unitary operator in eval).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .densemat import UNITARITY_TOL
from .entanglement import DEFAULT_MC_SAMPLES, _check_mc_samples
from .entanglement import entangling_power_mc, entanglement_report
from .operators import DEFAULT_SEED, _check_seed
from .opfile import _MAX_BYTES, read_operator_file
from .sweep import FAMILIES, SweepSpec, render_csv, sweep_rows
from .verify import run_acceptance

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage by default; 2 is reserved for
    # check failures here, so remap flag errors to the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the entpow command line."""
    parser = _Parser(
        prog="entpow",
        description="Operator entanglement and entangling power of two-qudit unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate an operator file")
    p_eval.add_argument("path", help="operator JSON file")
    p_eval.add_argument("--mc", action="store_true", help="add a Monte-Carlo cross-check")
    p_eval.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES, metavar="N")
    p_eval.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S")
    p_eval.add_argument(
        "--tol", type=float, default=UNITARITY_TOL, metavar="T", help="unitarity tolerance"
    )

    p_sweep = sub.add_parser("sweep", help="sweep an operator family, write CSV")
    p_sweep.add_argument("--family", required=True, choices=FAMILIES)
    p_sweep.add_argument("--d", type=int, required=True, help="local dimension")
    p_sweep.add_argument("--start", type=float, default=0.0, metavar="T0")
    p_sweep.add_argument("--end", type=float, default=math.pi, metavar="T1")
    p_sweep.add_argument("--steps", type=int, default=50, metavar="N")
    p_sweep.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S")
    p_sweep.add_argument("--out", default="-", metavar="PATH", help="output CSV ('-' = stdout)")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--mc", action="store_true", help="include Monte-Carlo checks (slower)")
    p_verify.add_argument("--d", type=int, default=None, metavar="D",
                          help="repeat closed-form checks at an extra local dimension")
    p_verify.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES, metavar="N")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.path, args.mc, args.mc_samples, args.seed, args.tol)
        if args.command == "sweep":
            spec = SweepSpec(args.family, args.d, args.start, args.end, args.steps, args.seed)
            return cmd_sweep(spec, args.out)
        return cmd_verify(args.mc, args.d, args.mc_samples, args.seed)
    except (ValueError, OSError) as e:
        print(f"entpow: error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def cmd_eval(path: str, mc: bool, mc_samples: int, seed: int, tol: float) -> int:
    """Print every measure of the operator stored at ``path``."""
    if mc:  # a bad flag prints no measures
        _check_mc_samples(mc_samples)
        _check_seed(seed)
    with open(path, "rb") as fh:
        # one byte past the cap is enough for the reader to reject the file
        op, name = read_operator_file(fh.read(_MAX_BYTES + 1))

    report = entanglement_report(op, tol=tol)
    e_max = report.e_swap  # 1 - 1/d^2, the entanglement ceiling

    print(f"operator: {name or '(unnamed)'} (d = {op.d})")
    defect = report.unitarity_defect
    print(f"unitarity defect: {defect:.3e} (tol {tol:.1e})")
    # raw values live in the report; display is clamped to the valid range,
    # except that NaN, from products that overflow, is shown as nan
    print(f"E(U)     = {_clamp(report.e_op, e_max):.12f}")
    print(f"E(S12 U) = {_clamp(report.e_op_swapped, e_max):.12f}")
    print(f"E(U S12) = {_clamp(report.e_op_swapped_right, e_max):.12f}")
    print(f"E(S12)   = {report.e_swap:.12f}")
    if report.e_power is None:
        print("e_p      = (not defined: operator failed the unitarity check)")
    else:
        print(f"e_p      = {_clamp(report.e_power, 1.0):.12f}")

    if not report.unitarity_ok:
        print(
            f"entpow: operator is not unitary: defect {defect:.6e} exceeds tol {tol:.1e}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILURE

    if mc:
        est = entangling_power_mc(op, mc_samples, seed, tol=tol)
        print(
            f"e_p (mc) = {_clamp(est.mean, 1.0):.12f} +/- {est.stderr:.3e}"
            f"  ({est.n_samples} samples, seed {est.seed})"
        )
    return EXIT_OK


def cmd_sweep(spec: SweepSpec, out: str) -> int:
    """Write the sweep CSV to ``out`` ('-' for stdout), opened before any row is computed."""
    if out == "-":
        sys.stdout.write(render_csv(sweep_rows(spec)))
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_csv(sweep_rows(spec)))
    return EXIT_OK


def cmd_verify(include_mc: bool, extra_d: int | None, mc_samples: int, seed: int) -> int:
    """Run the verification suite, one line per check."""
    results = run_acceptance(include_mc, extra_d, mc_samples, seed)
    n_pass = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        n_pass += r.passed
        print(f"{status}  {r.name}")
        print(f"      expected {r.expected}; got {r.computed}")
    print(f"{n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_CHECK_FAILURE


def _clamp(value: float, hi: float) -> float:
    return min(max(value, 0.0), hi)


if __name__ == "__main__":
    sys.exit(main())
