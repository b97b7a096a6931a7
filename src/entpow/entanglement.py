"""Entanglement measures for states and two-qudit unitaries.

A pure two-qudit state with coefficient matrix A (state = sum_ij A[i,j]
|i>|j>) has linear entropy

    E = 1 - Tr[(A A^dag)^2],

which is 0 exactly for product states and 1 - 1/d for maximally entangled
ones.  A unitary U on C^d (x) C^d, viewed as a normalized vector U/d in the
Hilbert-Schmidt space, has operator entanglement

    E(U) = 1 - Tr[(U^R (U^R)^dag)^2] / d^4,

where U^R is the realignment of U.  The same formula applied to the partial
transpose U^T1 gives the operator entanglement of S12 U (swap times U),
because S12 (S12 U)^R = U^T1 and left-multiplying by the swap does not
change the spectrum of M M^dag.

The entangling power -- the average linear entropy U creates on
Haar-random product states -- combines the two rearrangements:

    e_p(U) = (d/(d+1))^2 [2 - E(S12)]
             - (Tr[(U^R (U^R)^dag)^2] + Tr[(U^T1 (U^T1)^dag)^2]) / ((d+1)^2 d^2)

with E(S12) = 1 - 1/d^2.  This equals
(d/(d+1))^2 [E(U) + E(S12 U) - E(S12)].

Every measure comes from two purities, Tr[(U^R U^R^dag)^2] and
Tr[(U^T1 U^T1^dag)^2], computed by one batched core over an (n, d^2, d^2)
stack of operators: the stack is rearranged with reshape/transpose, the
Gram products M M^dag are formed in one batched product, and each
Tr[(M M^dag)^2] is the sum of |g|^2 over the Hermitian Gram matrix, taken
with a vectorised reduction.  The scalar functions are a batch of one, and
sweeps pass whole stacks.  Exact, permutation-invariant ``fsum`` sums stay
in ``densemat.frobenius_norm_sq``, where that invariance is the contract;
here the purities only need to be accurate to rounding.

A definition-level Monte-Carlo estimate of the entangling power is provided
as an independent cross-check of the closed formula: it averages the linear
entropy of U applied to seeded Haar-random product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densemat import _check_tolerance, _unitarity_defects, as_complex_matrix, frobenius_norm_sq
from .operators import product_state_batch
from .rearrange import BipartiteOperator, _rearrange

__all__ = [
    "UNITARITY_TOL",
    "UnitarityError",
    "NormalizationError",
    "EntanglementReport",
    "McEstimate",
    "state_linear_entropy",
    "operator_entanglement",
    "swapped_operator_entanglement",
    "swap_entanglement",
    "entangling_power",
    "entangling_power_mc",
    "entanglement_report",
]

# Max-abs entry of U^dag U - I tolerated before an operator is rejected.
# Loose enough for matrices read back from ~12-digit text, tight enough to
# protect the U/d normalization the measures rely on.
UNITARITY_TOL = 1e-9

MIN_MC_SAMPLES = 100


class UnitarityError(ValueError):
    """Raised when an operator fails the unitarity gate.

    Carries the defect (max-abs entry of U^dag U - I) and the tolerance it
    was checked against.
    """

    def __init__(self, defect: float, tol: float):
        super().__init__(
            f"operator is not unitary: defect {defect:.6e} exceeds tolerance {tol:.1e}"
        )
        self.defect = float(defect)
        self.tol = float(tol)


class NormalizationError(ValueError):
    """Raised for state input whose norm is not 1; carries the norm found."""

    def __init__(self, norm: float):
        super().__init__(f"state is not normalized: found norm {norm:.12g}, expected 1")
        self.norm = float(norm)


@dataclass(frozen=True)
class EntanglementReport:
    """All measures of one operator, raw (never clamped).

    ``e_op_swapped`` is the operator entanglement of S12 U via the partial
    transpose; ``e_op_swapped_right`` is that of U S12 via direct
    realignment.  ``e_power`` is None when the unitarity check failed,
    since the entangling-power formula is meaningless there.
    ``unitarity_defect`` is the max-abs entry of U^dag U - I that the
    check compared against its tolerance.
    """

    d: int
    e_op: float
    e_op_swapped: float
    e_op_swapped_right: float
    e_swap: float
    e_power: float | None
    unitarity_ok: bool
    unitarity_defect: float


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with standard error (sample std / sqrt(n))."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def state_linear_entropy(a) -> float:
    """Linear entropy 1 - Tr[(A A^dag)^2] of a normalized coefficient matrix.

    Parameters
    ----------
    a : (d, d) array_like
        Coefficient matrix of the state, with sum |A[i,j]|^2 equal to 1
        within 1e-9.

    Returns
    -------
    float
        Value in [0, 1 - 1/d]: 0 for product states, the upper bound for
        maximally entangled ones.

    Raises
    ------
    NormalizationError
        If the squared amplitude sum deviates from 1 by more than 1e-9.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {m.shape[0]}x{m.shape[1]}")
    norm_sq = frobenius_norm_sq(m)
    if abs(norm_sq - 1.0) > 1e-9:
        raise NormalizationError(math.sqrt(norm_sq))
    rho = m @ m.conj().T
    return 1.0 - frobenius_norm_sq(rho)


def operator_entanglement(u: BipartiteOperator, tol: float = UNITARITY_TOL) -> float:
    """Operator entanglement E(U) = 1 - Tr[(U^R (U^R)^dag)^2] / d^4.

    Ranges over [0, 1 - 1/d^2]; invariant under local factors
    U -> (A (x) B) U (C (x) D).

    Raises
    ------
    UnitarityError
        If the unitarity defect of ``u`` exceeds ``tol``.
    ValueError
        If ``tol`` is not a finite number >= 0.
    """
    stack = _gated(u, tol)
    return float(_entanglement(_purity(stack, u.d, "realign"), u.d)[0])


def swapped_operator_entanglement(u: BipartiteOperator, tol: float = UNITARITY_TOL) -> float:
    """Operator entanglement of S12 U, computed from the partial transpose.

    Equals ``operator_entanglement(swap_left(u))``: two routes to the same
    number, via S12 (S12 U)^R = U^T1.
    """
    stack = _gated(u, tol)
    return float(_entanglement(_purity(stack, u.d, "partial_transpose_first"), u.d)[0])


def swap_entanglement(d: int) -> float:
    """Operator entanglement of the swap itself: exactly 1 - 1/d^2."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return 1.0 - 1.0 / (d * d)


def entangling_power(u: BipartiteOperator, tol: float = UNITARITY_TOL) -> float:
    """Entangling power of a unitary: the mean linear entropy it creates
    on Haar-random product states.

    Evaluated in closed form from the realignment and the partial
    transpose; agrees with (d/(d+1))^2 [E(U) + E(S12 U) - E(S12)] to
    rounding error, and is nonnegative up to the same.

    Raises
    ------
    UnitarityError
        If the unitarity defect of ``u`` exceeds ``tol``.
    ValueError
        If ``tol`` is not a finite number >= 0.
    """
    stack = _gated(u, tol)
    return float(_power(*_purities(stack, u.d), u.d)[0])


def entangling_power_mc(
    u: BipartiteOperator,
    n_samples: int,
    seed: int,
    tol: float = UNITARITY_TOL,
) -> McEstimate:
    """Monte-Carlo estimate of the entangling power.

    Averages the linear entropy of U(|psi1>|psi2>) over ``n_samples``
    product states whose factors are independent Haar-random pure states,
    all drawn from one PCG64 stream seeded with ``seed``.  Identical
    (seed, n_samples) give an identical estimate.  This is the measure by
    definition, independent of the rearrangement formulas, so it serves as
    an oracle for :func:`entangling_power`.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {n_samples}")
    _gated(u, tol)
    rng = np.random.default_rng(seed)
    entropies = _sample_entropies(u, n_samples, rng)
    # ddof=1: sample standard deviation
    stderr = float(entropies.std(ddof=1)) / math.sqrt(n_samples)
    return McEstimate(
        mean=float(entropies.mean()),
        stderr=stderr,
        n_samples=int(n_samples),
        seed=int(seed),
    )


def entanglement_report(u: BipartiteOperator, tol: float = UNITARITY_TOL) -> EntanglementReport:
    """Evaluate every measure of ``u`` at once.

    A failed unitarity check does not raise: it is recorded in
    ``unitarity_ok`` with the defect found, the rearrangement-based fields
    are still computed, and ``e_power`` is set to None.

    Raises
    ------
    ValueError
        If ``tol`` is not a finite number >= 0.
    """
    _check_tolerance(tol)
    d = u.d
    stack = u.mat[None]
    defect = float(_unitarity_defects(stack)[0])
    ok = defect <= tol
    tr_r, tr_t = _purities(stack, d)
    tr_rs = _purity(_rearrange(stack, d, "swap_right"), d, "realign")
    return EntanglementReport(
        d=d,
        e_op=float(_entanglement(tr_r, d)[0]),
        e_op_swapped=float(_entanglement(tr_t, d)[0]),
        e_op_swapped_right=float(_entanglement(tr_rs, d)[0]),
        e_swap=swap_entanglement(d),
        e_power=float(_power(tr_r, tr_t, d)[0]) if ok else None,
        unitarity_ok=ok,
        unitarity_defect=defect,
    )


def _gate(stack: np.ndarray, tol: float) -> np.ndarray:
    """The unitarity gate for an (n, d^2, d^2) stack; returns the defects.

    Raises ValueError for a tolerance that is not finite and >= 0, and
    UnitarityError, with that operator's own defect, for the first operator
    whose defect is not within ``tol``.  A NaN or infinite defect, from
    non-finite entries, never passes.
    """
    _check_tolerance(tol)
    defects = _unitarity_defects(stack)
    bad = np.flatnonzero(~(defects <= tol))
    if bad.size:
        raise UnitarityError(defects[bad[0]], tol)
    return defects


def _gated(u: BipartiteOperator, tol: float) -> np.ndarray:
    """``u`` as a stack of one, after it has passed the gate."""
    stack = u.mat[None]
    _gate(stack, tol)
    return stack


def _purity(stack: np.ndarray, d: int, move: str) -> np.ndarray:
    """Tr[(M M^dag)^2] for M the ``move`` of each operator in the stack.

    M M^dag is Hermitian, so the trace of its square is the sum of |g|^2
    over its entries: a dot product of the float view with itself.
    """
    m = _rearrange(stack, d, move)
    g = m @ m.conj().transpose(0, 2, 1)
    x = g.view(np.float64).reshape(len(g), -1)
    return np.einsum("ni,ni->n", x, x)


def _purities(stack: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(Tr[(U^R U^R^dag)^2], Tr[(U^T1 U^T1^dag)^2]) for each U of the stack."""
    return _purity(stack, d, "realign"), _purity(stack, d, "partial_transpose_first")


def _entanglement(tr: np.ndarray, d: int) -> np.ndarray:
    """1 - Tr[(M M^dag)^2] / d^4: E(U) from tr_R, E(S12 U) from tr_T1."""
    return 1.0 - tr / float(d) ** 4


def _power(tr_r: np.ndarray, tr_t: np.ndarray, d: int) -> np.ndarray:
    """Entangling power from the two purities."""
    scale = (d / (d + 1.0)) ** 2
    return scale * (2.0 - swap_entanglement(d)) - (tr_r + tr_t) / ((d + 1.0) ** 2 * d * d)


def _sample_entropies(u: BipartiteOperator, n: int, rng: np.random.Generator) -> np.ndarray:
    """Linear entropies of U applied to n sampled product states."""
    d = u.d
    states = product_state_batch(rng, n, d)
    coeff = (states @ u.mat.T).reshape(n, d, d)
    rho = coeff @ coeff.conj().transpose(0, 2, 1)
    return 1.0 - np.einsum("nij,nij->n", rho, rho.conj()).real
