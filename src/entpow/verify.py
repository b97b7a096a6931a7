"""Built-in verification suite: the ten acceptance criteria, in one table.

``CRITERIA`` holds every criterion once, as ``(key, title, bound, worst)``.
``worst(run)`` recomputes the criterion at the dimensions and seed of one run
and returns a single number -- a max deviation, a mismatch count, or the MC
deviation in units of its allowance -- and the criterion holds iff that
number is at most ``bound``.  ``run_acceptance`` (behind ``entpow verify``)
and the tier-1 test ``tests/test_acceptance.py`` both iterate this table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densemat import _MAX_D, frobenius_norm_sq, unitarity_defect
from .entanglement import (
    _check_mc_samples,
    entangling_power,
    entangling_power_mc,
    operator_entanglement,
    swap_entanglement,
    swapped_operator_entanglement,
)
from .operators import ControlledUSpec, controlled_u, exp_swap, haar_unitary, swap_op
from .rearrange import (
    BipartiteOperator,
    partial_transpose_first,
    partial_transpose_second,
    realign,
    swap_left,
    swap_right,
)
from .sweep import SweepSpec, render_csv, sweep_rows

__all__ = ["CRITERIA", "CheckResult", "run_acceptance"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    computed: str


@dataclass
class _Run:
    """Dimensions and seeds of one acceptance run; titles are formatted from them."""

    swap_dims: list
    family_dims: list
    gate_dims: list
    mc_samples: int
    seed: int
    grids: dict = field(default_factory=dict, repr=False)

    def grid(self, d: int) -> np.ndarray:
        """Columns (t, E, E(S12 U), e_p) of exp_swap on a 50-point grid over [0, pi]."""
        if d not in self.grids:
            spec = SweepSpec("exp_swap", d, 0.0, math.pi, 50)
            self.grids[d] = np.array(sweep_rows(spec)).T
        return self.grids[d]


def _new_run(extra_d: int | None, mc_samples: int, seed: int) -> _Run:
    dims = ([2, 3, 4, 5], [2, 3, 4], [2, 3])
    if extra_d is not None:
        for ds in dims:
            if extra_d not in ds:
                ds.append(extra_d)
    return _Run(*dims, mc_samples, seed)


def run_acceptance(
    include_mc: bool = False,
    extra_d: int | None = None,
    mc_samples: int = 50000,
    seed: int = 1,
) -> list[CheckResult]:
    """Check every criterion of ``CRITERIA``, the Monte-Carlo one only when ``include_mc``.

    ``extra_d`` repeats the dimension-dependent checks at one more local
    dimension, from 2 to 16; any other value raises ``ValueError`` before
    anything is built, as does an ``mc_samples`` outside the limits of
    ``entangling_power_mc`` when ``include_mc`` is set.
    """
    _check_extra_d(extra_d)
    if include_mc:
        _check_mc_samples(mc_samples)
    run = _new_run(extra_d, mc_samples, seed)
    results = []
    for key, title, bound, worst in CRITERIA:
        if key == "monte_carlo_oracle" and not include_mc:
            continue
        value = worst(run)
        results.append(CheckResult(title.format(**vars(run)), value <= bound,
                                   *_detail(key, bound, value)))
    return results


def _check_extra_d(extra_d: int | None, label: str = "extra_d") -> None:
    if extra_d is not None and not (isinstance(extra_d, int) and 2 <= extra_d <= _MAX_D):
        raise ValueError(f"{label} must be from 2 to {_MAX_D}, got {extra_d}")


def _detail(key: str, bound: float, value: float) -> tuple[str, str]:
    if key == "monte_carlo_oracle":
        return ("|mc - closed form| <= max(5*stderr, 0.01)",
                f"worst deviation at {value:.2f} of allowance")
    if bound == 0:
        return "0 mismatches", f"{value:.0f} mismatches"
    return f"max deviation <= {bound:.0e}", f"max deviation {value:.3e}"


def _max_abs(*devs) -> float:
    # np.max propagates NaN, so a NaN deviation can never pass
    return float(np.max(np.abs(np.hstack(devs))))


def _haar_op(d: int, seed: int) -> BipartiteOperator:
    return BipartiteOperator(d, haar_unitary(d * d, seed))


def _children(entropy: int, n: int) -> list[int]:
    return np.random.SeedSequence(entropy).generate_state(n, dtype=np.uint64).tolist()


def _swap_values(run: _Run) -> float:
    devs = []
    for d in run.swap_dims:
        s, cap = swap_op(d), 1 - 1 / d**2
        devs += [operator_entanglement(s) - cap, swap_entanglement(d) - cap, entangling_power(s)]
    return _max_abs(devs)


def _swap_family(run: _Run) -> float:
    devs = []
    for d in run.family_dims:
        t, e, e_swapped, ep = run.grid(d)
        cap, peak = 1 - 1 / d**2, (d * d - 1) / (2.0 * (d + 1) ** 2)
        devs += [e - cap * (1 - np.cos(t) ** 4), e_swapped - cap * (1 - np.sin(t) ** 4),
                 ep - peak * np.sin(2 * t) ** 2]
    return _max_abs(*devs)


def _sqrt_swap(run: _Run) -> float:
    # the values at pi/4 and pi/2, and how far the grid point nearest each
    # falls short of the grid maximum of e_p and of E respectively
    devs = []
    for d in run.family_dims:
        t, e, _, ep = run.grid(d)
        cap, peak = 1 - 1 / d**2, (d * d - 1) / (2.0 * (d + 1) ** 2)
        v = exp_swap(d, math.pi / 4)
        devs += [operator_entanglement(v) - 0.75 * cap, entangling_power(v) - peak,
                 operator_entanglement(exp_swap(d, math.pi / 2)) - cap,
                 ep.max() - ep[np.argmin(np.abs(t - math.pi / 4))],
                 e.max() - e[np.argmin(np.abs(t - math.pi / 2))]]
    return _max_abs(devs)


def _controlled_u(run: _Run, n_instances: int = 20) -> float:
    seeds = iter(_children(20240 + max(run.gate_dims), n_instances * len(run.gate_dims)))
    devs = []
    for d in run.gate_dims:
        for _ in range(n_instances):
            seed = next(seeds)
            gate = controlled_u(ControlledUSpec(d, tuple(haar_unitary(d, seed + n) for n in range(d))))
            devs += [entangling_power(gate) - (d / (d + 1)) ** 2 * operator_entanglement(gate),
                     swapped_operator_entanglement(gate) - (1 - 1 / d**2),
                     # the partial transpose of a controlled-U is again unitary
                     unitarity_defect(partial_transpose_first(gate).mat)]
    return _max_abs(devs)


def _cnot(run: _Run) -> float:
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    cnot = controlled_u(ControlledUSpec(2, (np.eye(2, dtype=np.complex128), x)))
    return _max_abs(operator_entanglement(cnot) - 0.5, entangling_power(cnot) - 2.0 / 9.0)


def _fan_identity(run: _Run, n_instances: int = 100) -> float:
    seeds = iter(_children(31337, n_instances * len(run.family_dims)))
    mismatches = 0
    for d in run.family_dims:
        for _ in range(n_instances):
            u = _haar_op(d, next(seeds))
            lhs = swap_left(realign(swap_left(u))).mat
            mismatches += lhs.tobytes() != partial_transpose_first(u).mat.tobytes()
    return float(mismatches)


def _structural(run: _Run, n_instances: int = 100) -> float:
    moves = (realign, partial_transpose_first, partial_transpose_second, swap_left, swap_right)
    rng = np.random.default_rng(90210)
    mismatches = 0
    for d in run.family_dims:
        for _ in range(n_instances):
            m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            u = BipartiteOperator(d, m)
            norm = frobenius_norm_sq(u.mat)
            mismatches += not all(
                move(move(u)).mat.tobytes() == u.mat.tobytes()
                and frobenius_norm_sq(move(u).mat) == norm
                for move in moves
            )
    return float(mismatches)


def _mc_oracle(run: _Run) -> float:
    ops = [exp_swap(2, math.pi / 4)]
    ops += [_haar_op(d, s) for d, s in zip([2] * 5 + [3] * 5, _children(run.seed, 10))]
    ratios = []
    for k, u in enumerate(ops):
        est = entangling_power_mc(u, run.mc_samples, run.seed + k)
        ratios.append(abs(est.mean - entangling_power(u)) / max(5 * est.stderr, 0.01))
    return _max_abs(ratios)


def _local_invariance(run: _Run, n_instances: int = 50) -> float:
    seeds = iter(_children(777, 5 * n_instances * len(run.gate_dims)))
    devs = []
    for d in run.gate_dims:
        for _ in range(n_instances):
            u = _haar_op(d, next(seeds))
            a, b, c, e = (haar_unitary(d, next(seeds)) for _ in range(4))
            rotated = BipartiteOperator(d, np.kron(a, b) @ u.mat @ np.kron(c, e))
            devs += [operator_entanglement(rotated) - operator_entanglement(u),
                     entangling_power(rotated) - entangling_power(u)]
    return _max_abs(devs)


def _determinism(run: _Run) -> float:
    spec = SweepSpec("controlled_u_random", 2, 0.0, 1.0, 6, run.seed)
    u = _haar_op(3, run.seed)
    csv_differs = render_csv(sweep_rows(spec)) != render_csv(sweep_rows(spec))
    mc_differs = entangling_power_mc(u, 10000, run.seed) != entangling_power_mc(u, 10000, run.seed)
    return float(csv_differs + mc_differs)


CRITERIA = (
    ("swap_operator_values", "swap operator: E = 1 - 1/d^2 and e_p = 0 (d in {swap_dims})",
     1e-12, _swap_values),
    ("swap_family_closed_forms",
     "swap-generated family: closed forms on 50-point grid (d in {family_dims})",
     1e-12, _swap_family),
    ("sqrt_swap_extremes",
     "sqrt-swap point: values at t = pi/4 and grid maxima (d in {family_dims})",
     1e-12, _sqrt_swap),
    ("controlled_u_theorem",
     "controlled-U: e_p = (d/(d+1))^2 E and swapped E = 1 - 1/d^2 "
     "(20 instances, d in {gate_dims})",
     1e-12, _controlled_u),
    ("cnot_values", "cnot: E = 1/2 and e_p = 2/9", 1e-12, _cnot),
    ("fan_identity_bitwise",
     "swap-multiplication identity, bitwise (100 unitaries, d in {family_dims})",
     0, _fan_identity),
    ("structural_involutions",
     "rearrangement involutions and norm preservation (100 matrices, d in {family_dims})",
     0, _structural),
    ("monte_carlo_oracle",
     "Monte-Carlo oracle vs closed form (11 operators, {mc_samples} samples)",
     1.0, _mc_oracle),
    ("local_unitary_invariance",
     "local-unitary invariance of E and e_p (50 tuples, d in {gate_dims})",
     1e-10, _local_invariance),
    ("determinism", "determinism: repeated sweep CSV and repeated MC estimate",
     0, _determinism),
)
