"""The three benchmark workloads, each driven in-process through entpow.

A workload generates its inputs from the seed, warms up, and then hands out
rounds of operations.  An operation is one user-visible command -- an
`entpow sweep`, an `entpow eval`, an `entpow verify` through
``entpow.cli.main``, or one ``entangling_power_mc`` call -- with a check of
its output.  Every round runs the same commands in the same order, so the
mix of commands, and hence each statistic over them, is the same in every
run of a workload.

Why these three (see also BENCHMARK.json):

* sweep-small-d: small matrices, so per-row call overhead in sweep,
  entanglement, rearrange, densemat and the Haar sampler is nearly all the
  work; the file parser and the MC path never run.
* eval-large-d: d=8 and d=16 operator files, so JSON parsing and the
  fsum-based Frobenius sums over 65,536-entry Gram matrices dominate, with
  almost no call overhead; one non-unitary file exercises the gate's
  rejection path beside the accept path.
* mc-verify: 200k-sample MC estimates, where operators is a vectorised
  product-state sampler and allocation sets memory, plus the `verify --mc`
  suite users run after install.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import entpow
import entpow.cli

import checks


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs FULL, its own tests TINY."""

    sweep_rows: int = 1000
    sweep_dims: tuple = (2, 3, 4)
    sweep_warmup_rows: int = 100
    eval_files: tuple = ((8, 4), (16, 2))  # (d, number of unitary files)
    reject_d: int = 8
    mc_samples: int = 200_000
    mc_dims: tuple = (2, 3, 5)
    mc_warmup_samples: int = 20_000
    verify_argv: tuple = ("verify", "--mc", "--d", "5")
    verify_warmup_argv: tuple = ("verify", "--mc", "--mc-samples", "2000", "--d", "5")


FULL = Sizes()
TINY = Sizes(
    sweep_rows=16,
    sweep_dims=(2, 3),
    sweep_warmup_rows=4,
    eval_files=((2, 2), (3, 1)),
    reject_d=2,
    mc_samples=4000,
    mc_dims=(2, 3),
    mc_warmup_samples=200,
    verify_argv=("verify",),
    verify_warmup_argv=("verify",),
)


@dataclass
class Op:
    """One timed command and the check of what it returned."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    work: int = 1  # items counted by the workload's rate: rows, evals or samples
    units: int = 1  # operations it counts as for per-layer figures


@dataclass
class Record:
    kind: str
    seconds: float
    work: int
    units: int
    error: str | None
    round: int = 0
    cal: float = 0.0  # seconds the calibration kernel took around this command

    @property
    def ref_seconds(self) -> float:
        """The command's time at the speed where the kernel takes CAL_REF_S."""
        return self.seconds * CAL_REF_S / self.cal


# Calibration.  The shared host this benchmark was tuned on changes speed by
# up to a quarter within minutes, with other tenants' load, and the same
# command slows by the same factor as a fixed kernel timed next to it.  So
# every command is bracketed by two runs of the kernel, and the figures the
# benchmark gates on are command time over kernel time, in units of
# CAL_REF_S.  Raw wall times are reported beside them.
CAL_REF_S = 0.5e-3  # about the kernel's time on the 2-vCPU host the bounds were set on
_CAL_PERM = np.roll(np.eye(16, dtype=np.complex128), 1, axis=0)
_CAL_DATA = np.linspace(0.0, 1.0, 131072)


def calibration_kernel() -> float:
    """Fixed work in the proportions entpow has: interpreter, small matmuls, a reduction."""
    acc = 0.0
    for i in range(2500):
        acc += math.sqrt(i)
    m = _CAL_PERM
    for _ in range(80):
        m = m @ _CAL_PERM
    return acc + m[0, 0].real + float(np.dot(_CAL_DATA, _CAL_DATA))


def calibration_s(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` runs of the calibration kernel."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_cli(argv) -> tuple[int, str, str]:
    """Call ``entpow.cli.main`` in-process, capturing stdout and stderr.

    ``main`` is looked up at call time so that a traced run sees its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entpow.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def derive_seed(seed: int, *tags: int) -> int:
    """A 63-bit child seed, fixed by (seed, tags)."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, dtype=np.uint64)[0] >> 1)


def median(xs) -> float:
    return statistics.median(xs) if xs else math.nan


def tail(xs) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n): the 11th-largest sample, at percentile
    100 (n - 10) / n.  Below 20 samples that percentile would not be above
    the median, so the maximum is returned, at percentile 100.
    """
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return math.nan, math.nan, 0
    if n < 20:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _times_ms(records, prefix: str, ref: bool) -> list[float]:
    """Times in ms of the successful commands whose kind starts with ``prefix``."""
    return [1e3 * (r.ref_seconds if ref else r.seconds)
            for r in records if r.error is None and r.kind.startswith(prefix)]


def _rate(records, prefix: str, ref: bool) -> float:
    """Work per second of one round run at each command kind's median time.

    Medians per kind, rather than total work over total time, keep a burst
    of contention from other processes out of the figure.
    """
    kinds = {}
    for r in records:
        if r.round == records[0].round and r.kind.startswith(prefix):
            count, work = kinds.get(r.kind, (0, 0))
            kinds[r.kind] = (count + 1, work + r.work)
    seconds = sum(count * median(_times_ms(records, kind, ref)) / 1e3
                  for kind, (count, _) in kinds.items())
    return sum(work for _, work in kinds.values()) / seconds


class Workload:
    """Base: subclasses generate inputs in ``setup`` and ops in ``round``."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def selectors(self) -> tuple[str, str, str]:
        """Kind prefixes of the commands behind (rate, main, aux)."""
        raise NotImplementedError

    # The workload's own names for the (rate, main, aux) figures.
    names: tuple[str, str, str] = ("", "", "")

    def _figures(self, records, ref: bool):
        rate_k, main_k, aux_k = self.selectors()
        return (_rate(records, rate_k, ref), _times_ms(records, main_k, ref),
                _times_ms(records, aux_k, ref))

    def metrics(self, records) -> tuple[dict, dict]:
        """(end-to-end slots, calibrated; the raw figures under the workload's names)."""
        rate, main, aux = self._figures(records, ref=True)
        slots = {
            "rate_per_s": rate,
            "main_ms_p50": median(main),
            "main_ms_tail": tail(main)[0],
            "aux_ms_p50": median(aux),
        }
        rate, main, aux = self._figures(records, ref=False)
        main_tail, main_pct, main_n = tail(main)
        aux_tail, aux_pct, aux_n = tail(aux)
        rate_name, main_name, aux_name = self.names
        named = {
            rate_name: (rate, "1/s"),
            f"{main_name}_p50": (median(main), f"ms, n={main_n}"),
            f"{main_name}_tail": (main_tail, f"ms, p{main_pct:.1f} of n={main_n}"),
            f"{aux_name}_p50": (median(aux), f"ms, n={aux_n}"),
            f"{aux_name}_tail": (aux_tail, f"ms, p{aux_pct:.1f} of n={aux_n}"),
        }
        return slots, named


class SweepSmallD(Workload):
    name = "sweep-small-d"
    names = ("sweep_rows_per_s", "sweep_cmd_ms", "sweep_exp_swap_cmd_ms")

    def selectors(self):
        return "sweep:", "sweep:", "sweep:exp_swap:"

    def setup(self):
        sz = self.sizes
        self.kinds = [(f, d) for d in sz.sweep_dims for f in entpow.FAMILIES]
        self.first_csv: dict[str, str] = {}
        for i, (family, d) in enumerate(self.kinds):
            code, out, _ = run_cli(self._argv(i, family, d, sz.sweep_warmup_rows))
            if code != 0:
                raise RuntimeError(f"warm-up sweep {family} d={d} exited {code}")

    def _argv(self, i, family, d, rows):
        seed = derive_seed(self.seed, 1, i)
        return ("sweep", "--family", family, "--d", str(d), "--steps", str(rows), "--seed", str(seed))

    def round(self, r):
        rows = self.sizes.sweep_rows
        return [
            Op(
                kind=f"sweep:{family}:d{d}",
                run=lambda argv=self._argv(i, family, d, rows): run_cli(argv),
                check=lambda res, family=family, d=d: self._check(res, family, d),
                work=rows,
                units=rows,
            )
            for i, (family, d) in enumerate(self.kinds)
        ]

    def _check(self, res, family, d):
        code, out, _ = res
        err = checks.check_sweep(code, out, family, d, self.sizes.sweep_rows)
        if err is None:
            # the same spec must render byte-identical CSV every time
            first = self.first_csv.setdefault(f"{family}:{d}", out)
            if out != first:
                err = "repeated sweep gave different CSV"
        return err

class EvalLargeD(Workload):
    name = "eval-large-d"

    @property
    def names(self):
        dims = [d for d, _ in self.sizes.eval_files]
        return "evals_per_s", f"eval_d{max(dims)}_ms", f"eval_d{min(dims)}_ms"

    def selectors(self):
        dims = [d for d, _ in self.sizes.eval_files]
        return "eval", f"eval:d{max(dims)}", f"eval:d{min(dims)}"

    def setup(self):
        sz = self.sizes
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.files = []  # (kind, path, d, unitary, reference)
        specs = [(d, k, True) for d, count in sz.eval_files for k in range(count)]
        specs.append((sz.reject_d, 0, False))
        for d, k, unitary in specs:
            rng = np.random.default_rng([self.seed, 2, d, k, unitary])
            mat = checks.haar(d * d, rng)
            if not unitary:
                mat = mat * 1.001  # defect ~2e-3, far above the 1e-9 gate
            tag = "haar" if unitary else "scaled"
            path = inputs / f"{tag}-d{d}-{k}.json"
            path.write_text(checks.serialize(mat, d, f"{tag} d={d} #{k}"), encoding="utf-8")
            kind = f"eval:d{d}" if unitary else f"eval-reject:d{d}"
            self.files.append((kind, str(path), d, unitary, checks.reference_measures(mat, d)))
        for kind, path, d, unitary, _ in self.files:
            code, _, _ = run_cli(("eval", path))
            if code != (0 if unitary else 2):
                raise RuntimeError(f"warm-up eval of {path} exited {code}")

    def round(self, r):
        return [
            Op(
                kind=kind,
                run=lambda path=path: run_cli(("eval", path)),
                check=lambda res, ref=ref, d=d, unitary=unitary: checks.check_eval(
                    res[0], res[1], res[2], ref, d, unitary
                ),
            )
            for kind, path, d, unitary, ref in self.files
        ]

class McVerify(Workload):
    name = "mc-verify"
    names = ("mc_samples_per_s", "mc_call_ms", "verify_ms")

    def selectors(self):
        return "mc:", "mc:", "verify"

    def setup(self):
        sz = self.sizes
        self.ops = []  # (d, operator, closed-form e_p)
        for d in sz.mc_dims:
            mat = checks.haar(d * d, np.random.default_rng([self.seed, 3, d]))
            self.ops.append((d, entpow.BipartiteOperator(d, mat), checks.reference_measures(mat, d)["e_power"]))
        for d, op, _ in self.ops:
            entpow.entangling_power_mc(op, sz.mc_warmup_samples, derive_seed(self.seed, 4, d))
        code, _, _ = run_cli(sz.verify_warmup_argv)
        if code != 0:
            raise RuntimeError(f"warm-up verify exited {code}")

    def round(self, r):
        n = self.sizes.mc_samples
        ops = [
            Op(
                kind=f"mc:d{d}",
                run=lambda op=op, s=derive_seed(self.seed, 5, r, d): entpow.entangling_power_mc(op, n, s),
                check=lambda est, ep=ep: checks.check_mc(est.mean, est.stderr, est.n_samples, n, ep),
                work=n,
            )
            for d, op, ep in self.ops
        ]
        ops.append(
            Op(
                kind="verify",
                run=lambda: run_cli(self.sizes.verify_argv),
                check=lambda res: checks.check_verify(res[0], res[1]),
                work=0,
            )
        )
        return ops

WORKLOADS = {w.name: w for w in (SweepSmallD, EvalLargeD, McVerify)}


def run_round(workload, r: int, tracer=None) -> list[Record]:
    """Run round ``r`` once.  Only each command is timed; its check runs after."""
    records = []
    for op in workload.round(r):
        if tracer is not None:
            tracer.op_id += 1
        cal_before = calibration_s()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as e:  # a crash is a failed operation, not a crashed run
            error = f"{type(e).__name__}: {e}"
        else:
            error = None
        dt = time.perf_counter() - t0
        cal = (cal_before + calibration_s()) / 2
        if error is None:
            try:
                error = op.check(result)
            except Exception as e:
                error = f"check raised {type(e).__name__}: {e}"
        records.append(Record(op.kind, dt, op.work, op.units, error, r, cal))
    return records


def measure(workload, seconds: float | None, rounds: int | None = None):
    """Run whole rounds until ``seconds`` have passed, or ``rounds`` are done."""
    records = []
    t_start = time.perf_counter()
    r = 0
    while True:
        records += run_round(workload, r)
        r += 1
        if r >= rounds if rounds is not None else time.perf_counter() - t_start >= seconds:
            return records, r


def kind_stats(records) -> dict:
    """Per command kind: count, median and minimum time in ms, failures."""
    out = {}
    for kind in dict.fromkeys(r.kind for r in records):
        times = _times_ms(records, kind, ref=False)
        out[kind] = {
            "n": len(times),
            "p50_ms": median(times),
            "min_ms": min(times, default=math.nan),
            "failed": sum(r.error is not None for r in records if r.kind == kind),
        }
    return out
