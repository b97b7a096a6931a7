"""Built-in verification suite: the ten acceptance criteria, in one table.

``CRITERIA`` holds every criterion once, as ``(key, title, bound, worst)``.
``worst(run, rng)`` recomputes the criterion at the dimensions of one run and
returns a single number -- a max deviation, a mismatch count, or the MC
deviation in units of its allowance -- and the criterion holds iff that
number is at most ``bound``.  ``_worst`` runs row k on ``default_rng([seed, k])``,
the suite's one seed rule, and every random draw of the criterion comes from
it; new rows go at the end, so each row keeps its draws.  ``run_acceptance``
(behind ``entpow verify``) and ``tests/test_acceptance.py`` both call it.
The four criteria over many random operators draw them sample-major, in stacks
of at most ``densemat._STACK_BYTES`` of entries, so their values do not depend
on where stacks split; each puts its last one through the scalar public API.
Controlled-U and local invariance get their measures from the gated call of
sweeps, ``entanglement._measures``.  The Monte-Carlo oracle stacks its
operators by local dimension (the sqrt-swap and ``_MC_HAAR`` Haar unitaries at
d = 2, as many at d = 3) and estimates each stack at once with ``_mc_estimates``,
seeded with the next 64-bit word of its generator so the states share no draw
with the operators, against closed forms from ``_measures`` on the same stack.
The determinism criterion repeats that estimator, and a sweep, at the seed itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densemat import _STACK_BYTES, _check_local_dim, _operator_bytes, _spans, _unitarity_defects
from .entanglement import DEFAULT_MC_SAMPLES, _check_mc_samples, _mc_estimates, _measures
from .entanglement import entangling_power, operator_entanglement
from .entanglement import swap_entanglement
from .operators import ControlledUSpec, controlled_u, exp_swap, haar_unitary, swap_op
from .operators import DEFAULT_SEED, _check_seed, _haar_stack, _random_controlled_u_stack
from .rearrange import _AXES, BipartiteOperator, _rearrange
from .rearrange import partial_transpose_first, realign, swap_left
from .sweep import SweepSpec, render_csv, sweep_rows

__all__ = ["CRITERIA", "CheckResult", "run_acceptance"]

# Operators per dimension (local invariance: tuples (A, B, C, D, U)) and the
# Monte-Carlo oracle's Haar unitaries per stack; each criterion and its title read them.
_CONTROLLED_U_GATES = 20
_FAN_UNITARIES = 100
_STRUCTURAL_MATRICES = 100
_LOCAL_TUPLES = 50
_MC_HAAR = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    computed: str


@dataclass
class _Run:
    """Dimensions and seed of one acceptance run; titles are formatted from them."""

    swap_dims: list
    family_dims: list
    gate_dims: list
    mc_samples: int
    seed: int
    grids: dict = field(default_factory=dict, repr=False)

    def grid(self, d: int) -> np.ndarray:
        """Columns (t, E, E(S12 U), e_p) of exp_swap on a 50-point grid over [0, pi]."""
        if d not in self.grids:
            self.grids[d] = np.array(sweep_rows(SweepSpec("exp_swap", d, 0.0, math.pi, 50))).T
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
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Check every criterion of ``CRITERIA``, the Monte-Carlo one only when ``include_mc``.

    ``extra_d`` repeats the dimension-dependent checks at one more local
    dimension, from 2 to 16; any other value raises ``ValueError`` before
    anything is built, as do a ``seed`` that is not an integer with
    ``0 <= seed < 2**64`` and, when ``include_mc`` is set, an ``mc_samples``
    outside the limits of ``entangling_power_mc``.  The seed reaches every
    random criterion: see ``_worst``.
    """
    extra_d = None if extra_d is None else _check_local_dim(extra_d)
    if include_mc:
        _check_mc_samples(mc_samples)
    run = _new_run(extra_d, mc_samples, _check_seed(seed))
    results = []
    for k, (key, title, bound, _) in enumerate(CRITERIA):
        if key == "monte_carlo_oracle" and not include_mc:
            continue
        value = _worst(run, k)
        results.append(CheckResult(title.format(**vars(run)), value <= bound,
                                   *_detail(key, bound, value)))
    return results


def _worst(run: _Run, k: int) -> float:
    """Criterion k of ``CRITERIA`` at ``run``, drawing from its own generator ``[seed, k]``."""
    return CRITERIA[k][3](run, np.random.default_rng([run.seed, k]))


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


def _sorted_sq(stack: np.ndarray) -> np.ndarray:
    """Each matrix's |entry|^2, sorted: equal rows give equal ``frobenius_norm_sq``."""
    return np.sort((stack.real**2 + stack.imag**2).reshape(len(stack), -1))


def _swap_values(run: _Run, rng: np.random.Generator) -> float:
    devs = []
    for d in run.swap_dims:
        s, cap = swap_op(d), 1 - 1 / d**2
        devs += [operator_entanglement(s) - cap, swap_entanglement(d) - cap, entangling_power(s)]
    return _max_abs(devs)


def _swap_family(run: _Run, rng: np.random.Generator) -> float:
    devs = []
    for d in run.family_dims:
        t, e, e_swapped, ep = run.grid(d)
        cap, peak = 1 - 1 / d**2, (d * d - 1) / (2.0 * (d + 1) ** 2)
        devs += [e - cap * (1 - np.cos(t) ** 4), e_swapped - cap * (1 - np.sin(t) ** 4),
                 ep - peak * np.sin(2 * t) ** 2]
    return _max_abs(*devs)


def _sqrt_swap(run: _Run, rng: np.random.Generator) -> float:
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


def _controlled_u(run: _Run, rng: np.random.Generator) -> float:
    devs = []
    for d in run.gate_dims:
        for lo, hi in _spans(_CONTROLLED_U_GATES, _operator_bytes(d), _STACK_BYTES):
            gates = _random_controlled_u_stack(d, hi - lo, rng)
            e, e_swapped, e_p = _measures(gates)
            devs += [e_p - (d / (d + 1)) ** 2 * e, e_swapped - (1 - 1 / d**2),
                     # the partial transpose of a controlled-U is again unitary
                     _unitarity_defects(_rearrange(gates, "partial_transpose_first"))]
    devs.append(entangling_power(BipartiteOperator(d, gates[-1])) - e_p[-1])
    return _max_abs(*devs)


def _cnot(run: _Run, rng: np.random.Generator) -> float:
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    cnot = controlled_u(ControlledUSpec(2, (np.eye(2, dtype=np.complex128), x)))
    return _max_abs(operator_entanglement(cnot) - 0.5, entangling_power(cnot) - 2.0 / 9.0)


def _fan_identity(run: _Run, rng: np.random.Generator) -> float:
    mismatches = 0
    for d in run.family_dims:
        for lo, hi in _spans(_FAN_UNITARIES, _operator_bytes(d), _STACK_BYTES):
            u = _haar_stack(d * d, hi - lo, rng)
            lhs = _rearrange(_rearrange(u, "swap_left"), "realign")  # (S12 U)^R = S12 U^T1
            rhs = _rearrange(_rearrange(u, "partial_transpose_first"), "swap_left")
            mismatches += sum(x.tobytes() != y.tobytes() for x, y in zip(lhs, rhs))
    u = BipartiteOperator(d, u[-1])
    lhs = swap_left(realign(swap_left(u))).mat
    return float(mismatches + (lhs.tobytes() != partial_transpose_first(u).mat.tobytes()))


def _structural(run: _Run, rng: np.random.Generator) -> float:
    mismatches = 0
    for d in run.family_dims:
        for lo, hi in _spans(_STRUCTURAL_MATRICES, _operator_bytes(d), _STACK_BYTES):
            m = rng.standard_normal((hi - lo, d * d, d * d, 2)).view(np.complex128)[..., 0]
            m[:, 0] = -0.0  # signed zeros, which any arithmetic (even + 0.0) would turn into 0.0
            sq, bad = _sorted_sq(m), np.zeros(hi - lo, dtype=bool)
            for move in _AXES:
                moved = _rearrange(m, move)
                bad |= [x.tobytes() != y.tobytes() for x, y in zip(_rearrange(moved, move), m)]
                bad |= np.any(_sorted_sq(moved) != sq, axis=1)
            mismatches += int(bad.sum())
    u = BipartiteOperator(d, m[-1])
    return float(mismatches + (realign(realign(u)).mat.tobytes() != u.mat.tobytes()))


def _mc_oracle(run: _Run, rng: np.random.Generator) -> float:
    # the operators of one local dimension share one estimate's product states
    sqrt_swap = exp_swap(2, math.pi / 4).mat[None]
    stacks = {2: np.concatenate([sqrt_swap, _haar_stack(4, _MC_HAAR, rng)]),
              3: _haar_stack(9, _MC_HAAR, rng)}
    devs = []
    for d, stack in stacks.items():
        e_p = _measures(stack)[2]
        ests = _mc_estimates(stack, run.mc_samples, int(rng.bit_generator.random_raw()))
        devs += [abs(e.mean - p) / max(5 * e.stderr, 0.01) for e, p in zip(ests, e_p)]
    return _max_abs(devs)


def _local_invariance(run: _Run, rng: np.random.Generator) -> float:
    devs = []
    for d in run.gate_dims:
        # the factors (A, B, C, D) of all n tuples first, then the n operators U
        local = _haar_stack(d, 4 * _LOCAL_TUPLES, rng).reshape(_LOCAL_TUPLES, 4, d, d)
        for lo, hi in _spans(_LOCAL_TUPLES, _operator_bytes(d), _STACK_BYTES):
            u = _haar_stack(d * d, hi - lo, rng)
            ab, cd = np.einsum("nkij,nkab->kniajb", local[lo:hi, ::2], local[lo:hi, 1::2])
            rotated = ab.reshape(u.shape) @ u @ cd.reshape(u.shape)  # (A (x) B) U (C (x) D)
            (e, _, e_p), (rot_e, _, rot_p) = _measures(u), _measures(rotated)
            devs += [rot_e - e, rot_p - e_p]
    devs.append(entangling_power(BipartiteOperator(d, rotated[-1])) - e_p[-1])
    return _max_abs(*devs)


def _determinism(run: _Run, rng: np.random.Generator) -> float:
    spec = SweepSpec("controlled_u_random", 2, 0.0, 1.0, 6, run.seed)
    u = haar_unitary(9, run.seed)[None]
    csv_differs = render_csv(sweep_rows(spec)) != render_csv(sweep_rows(spec))
    mc_differs = _mc_estimates(u, 10000, run.seed) != _mc_estimates(u, 10000, run.seed)
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
     f"({_CONTROLLED_U_GATES} instances, d in {{gate_dims}})",
     1e-12, _controlled_u),
    ("cnot_values", "cnot: E = 1/2 and e_p = 2/9", 1e-12, _cnot),
    ("fan_identity_bitwise",
     f"swap-multiplication identity, bitwise ({_FAN_UNITARIES} unitaries, d in {{family_dims}})",
     0, _fan_identity),
    ("structural_involutions",
     "rearrangement involutions and norm preservation "
     f"({_STRUCTURAL_MATRICES} matrices, d in {{family_dims}})",
     0, _structural),
    ("monte_carlo_oracle",
     f"Monte-Carlo oracle vs closed form ({1 + 2 * _MC_HAAR} operators, {{mc_samples}} samples)",
     1.0, _mc_oracle),
    ("local_unitary_invariance",
     f"local-unitary invariance of E and e_p ({_LOCAL_TUPLES} tuples, d in {{gate_dims}})",
     1e-10, _local_invariance),
    ("determinism", "determinism: repeated sweep CSV and repeated MC estimate",
     0, _determinism),
)
