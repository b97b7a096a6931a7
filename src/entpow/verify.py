"""Built-in verification suite.

Re-derives every closed-form value and structural identity the library is
contractually required to reproduce, and reports one pass/fail line per
check.  The Monte-Carlo cross-checks (slower) are opt-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    entangling_power,
    entangling_power_mc,
    operator_entanglement,
    swap_entanglement,
    swapped_operator_entanglement,
)
from .operators import (
    ControlledUSpec,
    controlled_u,
    exp_swap,
    haar_unitary,
    swap_op,
)
from .rearrange import (
    BipartiteOperator,
    partial_transpose_first,
    partial_transpose_second,
    realign,
    swap_left,
    swap_right,
)
from .densemat import frobenius_norm
from .sweep import SweepSpec, render_csv, sweep_rows

__all__ = ["CheckResult", "run_acceptance"]

TOL = 1e-12
LOCAL_INVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    computed: str


def run_acceptance(
    include_mc: bool = False,
    extra_d: int | None = None,
    mc_samples: int = 50000,
    seed: int = 1,
) -> list[CheckResult]:
    """Run every acceptance check; Monte-Carlo ones only when ``include_mc``.

    ``extra_d`` repeats the closed-form checks at one additional local
    dimension.
    """
    swap_dims = [2, 3, 4, 5]
    family_dims = [2, 3, 4]
    gate_dims = [2, 3]
    if extra_d is not None:
        for dims in (swap_dims, family_dims, gate_dims):
            if extra_d not in dims:
                dims.append(extra_d)

    checks = [
        _check_swap_values(swap_dims),
        _check_swap_family(family_dims),
        _check_sqrt_swap(family_dims),
        _check_controlled_u(gate_dims),
        _check_cnot(),
        _check_fan_identity(family_dims),
        _check_structural(family_dims),
    ]
    if include_mc:
        checks.append(_check_mc_oracle(mc_samples, seed))
    checks.append(_check_local_invariance(gate_dims))
    checks.append(_check_determinism(seed))
    return checks


def _dev_result(name: str, worst: float, tol: float = TOL) -> CheckResult:
    return CheckResult(
        name=name,
        passed=worst <= tol,
        expected=f"max deviation <= {tol:.0e}",
        computed=f"max deviation {worst:.3e}",
    )


def _check_swap_values(dims) -> CheckResult:
    worst = 0.0
    for d in dims:
        s = swap_op(d)
        worst = max(
            worst,
            abs(operator_entanglement(s) - swap_entanglement(d)),
            abs(entangling_power(s)),
        )
    return _dev_result(f"swap operator: E = 1 - 1/d^2 and e_p = 0 (d in {dims})", worst)


def _swap_family_forms(d: int, t: float) -> tuple[float, float, float]:
    e_max = 1.0 - 1.0 / d**2
    ep = (d * d - 1) / (2.0 * (d + 1) ** 2) * math.sin(2 * t) ** 2
    return e_max * (1 - math.cos(t) ** 4), e_max * (1 - math.sin(t) ** 4), ep


def _check_swap_family(dims) -> CheckResult:
    worst = 0.0
    for d in dims:
        for t in np.linspace(0.0, math.pi, 50):
            v = exp_swap(d, float(t))
            want_e, want_es, want_ep = _swap_family_forms(d, float(t))
            worst = max(
                worst,
                abs(operator_entanglement(v) - want_e),
                abs(swapped_operator_entanglement(v) - want_es),
                abs(entangling_power(v) - want_ep),
            )
    return _dev_result(
        f"swap-generated family: closed forms on 50-point grid (d in {dims})", worst
    )


def _check_sqrt_swap(dims) -> CheckResult:
    worst = 0.0
    located = True
    grid = np.linspace(0.0, math.pi, 50)
    k_quarter = int(np.argmin(np.abs(grid - math.pi / 4)))
    k_half = int(np.argmin(np.abs(grid - math.pi / 2)))
    for d in dims:
        v = exp_swap(d, math.pi / 4)
        worst = max(
            worst,
            abs(operator_entanglement(v) - 0.75 * (1 - 1 / d**2)),
            abs(entangling_power(v) - (d * d - 1) / (2.0 * (d + 1) ** 2)),
        )
        e_vals = np.empty(grid.size)
        ep_vals = np.empty(grid.size)
        for k, t in enumerate(grid):
            u = exp_swap(d, float(t))
            e_vals[k] = operator_entanglement(u)
            ep_vals[k] = entangling_power(u)
        located &= ep_vals[k_quarter] >= ep_vals.max() - TOL
        located &= e_vals[k_half] >= e_vals.max() - TOL
    passed = worst <= TOL and located
    return CheckResult(
        name=f"sqrt-swap point: values at t = pi/4 and grid maxima (d in {dims})",
        passed=passed,
        expected=f"max deviation <= {TOL:.0e} and maxima at pi/4 (e_p), pi/2 (E)",
        computed=f"max deviation {worst:.3e}, maxima located: {located}",
    )


def _random_controlled(d: int, child_seed: int) -> BipartiteOperator:
    blocks = tuple(haar_unitary(d, int(child_seed) + n) for n in range(d))
    return controlled_u(ControlledUSpec(d, blocks))


def _check_controlled_u(dims, n_instances: int = 20) -> CheckResult:
    worst = 0.0
    child = np.random.SeedSequence(20240 + max(dims)).generate_state(
        n_instances * len(dims), dtype=np.uint64
    )
    idx = 0
    for d in dims:
        scale = (d / (d + 1.0)) ** 2
        for _ in range(n_instances):
            cu = _random_controlled(d, int(child[idx]))
            idx += 1
            worst = max(
                worst,
                abs(entangling_power(cu) - scale * operator_entanglement(cu)),
                abs(swapped_operator_entanglement(cu) - swap_entanglement(d)),
            )
    return _dev_result(
        f"controlled-U: e_p = (d/(d+1))^2 E and swapped E = 1 - 1/d^2 "
        f"({n_instances} instances, d in {dims})",
        worst,
    )


def _check_cnot() -> CheckResult:
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    cnot = controlled_u(ControlledUSpec(2, (np.eye(2, dtype=np.complex128), x)))
    worst = max(
        abs(operator_entanglement(cnot) - 0.5),
        abs(entangling_power(cnot) - 2.0 / 9.0),
    )
    return _dev_result("cnot: E = 1/2 and e_p = 2/9", worst)


def _check_fan_identity(dims, n_instances: int = 100) -> CheckResult:
    failures = 0
    total = 0
    child = np.random.SeedSequence(31337).generate_state(
        n_instances * len(dims), dtype=np.uint64
    )
    idx = 0
    for d in dims:
        for _ in range(n_instances):
            u = BipartiteOperator(d, haar_unitary(d * d, int(child[idx])))
            idx += 1
            total += 1
            lhs = swap_left(realign(swap_left(u))).mat
            rhs = partial_transpose_first(u).mat
            if not np.array_equal(lhs, rhs):
                failures += 1
    return CheckResult(
        name=f"swap-multiplication identity, bitwise ({n_instances} unitaries, d in {dims})",
        passed=failures == 0,
        expected=f"0 of {total} mismatches",
        computed=f"{failures} of {total} mismatches",
    )


def _check_structural(dims, n_instances: int = 100) -> CheckResult:
    failures = 0
    total = 0
    moves = (realign, partial_transpose_first, partial_transpose_second, swap_left, swap_right)
    rng = np.random.default_rng(90210)
    for d in dims:
        n = d * d
        for _ in range(n_instances):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = BipartiteOperator(d, m)
            total += 1
            base_norm = frobenius_norm(u.mat)
            ok = all(
                np.array_equal(move(move(u)).mat, u.mat)
                and frobenius_norm(move(u).mat) == base_norm
                for move in moves
            )
            failures += not ok
    return CheckResult(
        name=f"rearrangement involutions and norm preservation ({n_instances} matrices, d in {dims})",
        passed=failures == 0,
        expected=f"0 of {total} failures",
        computed=f"{failures} of {total} failures",
    )


def _check_mc_oracle(mc_samples: int, seed: int) -> CheckResult:
    cases: list[tuple[str, BipartiteOperator]] = [("exp_swap(2, pi/4)", exp_swap(2, math.pi / 4))]
    child = np.random.SeedSequence(seed).generate_state(10, dtype=np.uint64)
    for i, d in enumerate([2] * 5 + [3] * 5):
        cases.append((f"haar d={d} #{i % 5}", BipartiteOperator(d, haar_unitary(d * d, int(child[i])))))
    worst_ratio = 0.0
    passed = True
    for k, (_, u) in enumerate(cases):
        est = entangling_power_mc(u, mc_samples, seed + k)
        dev = abs(est.mean - entangling_power(u))
        allowed = max(5 * est.stderr, 0.01)
        worst_ratio = max(worst_ratio, dev / allowed)
        passed &= dev <= allowed
    return CheckResult(
        name=f"Monte-Carlo oracle vs closed form ({len(cases)} operators, {mc_samples} samples)",
        passed=passed,
        expected="|mc - closed form| <= max(5*stderr, 0.01)",
        computed=f"worst deviation at {worst_ratio:.2f} of allowance",
    )


def _check_local_invariance(dims, n_instances: int = 50) -> CheckResult:
    worst = 0.0
    child = np.random.SeedSequence(777).generate_state(
        5 * n_instances * len(dims), dtype=np.uint64
    )
    idx = 0
    for d in dims:
        for _ in range(n_instances):
            u = BipartiteOperator(d, haar_unitary(d * d, int(child[idx])))
            a, b, c, e = (haar_unitary(d, int(child[idx + j])) for j in range(1, 5))
            idx += 5
            rotated = BipartiteOperator(d, np.kron(a, b) @ u.mat @ np.kron(c, e))
            worst = max(
                worst,
                abs(operator_entanglement(rotated) - operator_entanglement(u)),
                abs(entangling_power(rotated) - entangling_power(u)),
            )
    return _dev_result(
        f"local-unitary invariance of E and e_p ({n_instances} tuples, d in {dims})",
        worst,
        LOCAL_INVARIANCE_TOL,
    )


def _check_determinism(seed: int) -> CheckResult:
    spec = SweepSpec(family="exp_swap", d=2, param_start=0.0, param_end=math.pi, steps=9, seed=seed)
    csv_a = render_csv(sweep_rows(spec))
    csv_b = render_csv(sweep_rows(spec))
    v = exp_swap(2, math.pi / 4)
    mc_a = entangling_power_mc(v, 10000, seed)
    mc_b = entangling_power_mc(v, 10000, seed)
    passed = csv_a == csv_b and mc_a == mc_b
    return CheckResult(
        name="determinism: repeated sweep CSV and repeated MC estimate",
        passed=passed,
        expected="byte-identical CSV, identical estimates",
        computed=f"csv identical: {csv_a == csv_b}, mc identical: {mc_a == mc_b}",
    )
