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
stack of operators, whose functions take the stack alone and read d from its
shape: the stack is rearranged with reshape/transpose, the
Gram products M M^dag are formed in one batched product, and each
Tr[(M M^dag)^2] is the sum of |g|^2 over the Hermitian Gram matrix, taken
with a vectorised reduction.  ``_measures`` is the one gated call from a
stack to (E(U), E(S12 U), e_p), for sweeps, ``verify`` and the three scalar
measures, each a stack of one.  It passes them through the one unitarity
gate, ``densemat._gate``, at ``UNITARITY_TOL``; the gate, its tolerance and
its ``UnitarityError`` live in ``densemat`` and are re-exported here.
``entanglement_report`` calls the same gate at its own tolerance and
records a failure instead of raising, so it also takes the purities of an
operator that fails.  Exact, permutation-invariant
``fsum`` sums stay in ``densemat.frobenius_norm_sq``, where that invariance
is the contract; here the purities only need to be accurate to rounding.

A definition-level Monte-Carlo estimate of the entangling power is provided
as an independent cross-check of the closed formula: it averages the linear
entropy of U applied to seeded Haar-random product states.  One private
kernel estimates a (k, d^2, d^2) stack of operators on one shared stream of
states: the samples stream through chunks whose arrays take about
``densemat._MC_CHUNK_BYTES`` (2 MiB) together, counted over every array a
chunk allocates -- one draw, one GEMM for all k operators and one purity
reduction per chunk, on arrays made for that chunk -- so its memory is 8
bytes per sample per operator plus a few chunks, and the sample count is
capped at ``MAX_MC_SAMPLES``.  Each estimate runs one worker thread beside
the caller: the caller draws chunk i+1 while the worker evaluates chunk i,
so one chunk is in flight beside the one being drawn, and the estimate is
bitwise that of evaluating the chunks one after the other.  A chunk costs
a thread handoff, so chunks are sized by memory rather than kept small.  The
sampler hands each chunk over as the transposed view of a (d^2, s) buffer,
so the GEMM reads a C-contiguous operand.  ``entangling_power_mc`` is that
kernel on a stack of one, and ``verify`` runs it on each dimension's stack
of oracle operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densemat import UNITARITY_TOL, _MC_CHUNK_BYTES, UnitarityError, _check_int
from .densemat import _check_local_dim, _gate, _spans, as_complex_matrix, frobenius_norm_sq
from .operators import _check_seed, product_state_batch
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

# ``densemat._STATE_BYTES`` holds the ``MAX_MC_SAMPLES`` states of one draw at d = 2.
MIN_MC_SAMPLES = 100
DEFAULT_MC_SAMPLES = 50_000
MAX_MC_SAMPLES = 10_000_000


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


def operator_entanglement(u: BipartiteOperator) -> float:
    """Operator entanglement E(U) = 1 - Tr[(U^R (U^R)^dag)^2] / d^4.

    Ranges over [0, 1 - 1/d^2]; invariant under local factors
    U -> (A (x) B) U (C (x) D).  Another tolerance goes through
    ``entanglement_report(u, tol)``.

    Raises
    ------
    UnitarityError
        If the unitarity defect of ``u`` exceeds ``UNITARITY_TOL``.
    """
    return float(_measures(u.mat[None])[0][0])


def swapped_operator_entanglement(u: BipartiteOperator) -> float:
    """Operator entanglement of S12 U, computed from the partial transpose.

    Equals ``operator_entanglement(swap_left(u))``: two routes to the same
    number, via S12 (S12 U)^R = U^T1.  Gated as ``operator_entanglement`` is.
    """
    return float(_measures(u.mat[None])[1][0])


def swap_entanglement(d: int) -> float:
    """Operator entanglement of the swap itself: exactly 1 - 1/d^2.

    Raises ValueError unless ``d`` is a non-bool Python or NumPy integer from
    2 to 16, the range of every operator constructor.
    """
    d = _check_local_dim(d)
    return 1.0 - 1.0 / (d * d)


def entangling_power(u: BipartiteOperator) -> float:
    """Entangling power of a unitary: the mean linear entropy it creates
    on Haar-random product states.

    Evaluated in closed form from the realignment and the partial
    transpose; agrees with (d/(d+1))^2 [E(U) + E(S12 U) - E(S12)] to
    rounding error, and is nonnegative up to the same.  Another tolerance
    goes through ``entanglement_report(u, tol)`` or ``entangling_power_mc``.

    Raises
    ------
    UnitarityError
        If the unitarity defect of ``u`` exceeds ``UNITARITY_TOL``.
    """
    return float(_measures(u.mat[None])[2][0])


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

    Samples stream through chunks whose states, coefficients and
    temporaries take about 2 MiB together at any d (4096 samples at d = 2),
    so memory is 8 bytes per sample for the entropies, whose spread is taken
    in place, plus the chunk being evaluated and the one being drawn: under
    2 MiB at d = 2.  One worker thread, started and joined within the call,
    evaluates each chunk while the calling thread draws the next; the
    estimate is bitwise that of a single thread.

    Raises
    ------
    ValueError
        If ``n_samples`` is not an integer from ``MIN_MC_SAMPLES`` (100) to
        ``MAX_MC_SAMPLES`` (10,000,000), ``seed`` is not an integer from 0
        to 2**64 - 1, or ``tol`` is not a finite number >= 0; all three are
        checked before anything is drawn.
    UnitarityError
        If the unitarity defect of ``u`` exceeds ``tol``.
    """
    return _mc_estimates(u.mat[None], n_samples, seed, tol)[0]


def entanglement_report(u: BipartiteOperator, tol: float = UNITARITY_TOL) -> EntanglementReport:
    """Evaluate every measure of ``u`` at once.

    A failed unitarity gate does not raise: it is recorded in
    ``unitarity_ok`` with the defect found, the rearrangement-based fields
    are still computed, and ``e_power`` is set to None.  Finite entries
    whose products overflow give inf or NaN values, without a numpy warning.

    Raises
    ------
    ValueError
        If ``tol`` is not a finite number >= 0.
    """
    d = u.d
    stack = u.mat[None]
    try:
        defect, ok = float(_gate(stack, tol)[0]), True
    except UnitarityError as err:
        defect, ok = err.defect, False
    with np.errstate(over="ignore", invalid="ignore"):
        tr_r, tr_t = _purities(stack)
        tr_rs = _purity(_rearrange(stack, "swap_right"), "realign")
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


def _measures(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """(E(U), E(S12 U), e_p) for each U of an (n, d^2, d^2) stack, which
    passes ``_gate`` at ``UNITARITY_TOL`` first and raises as the gate does."""
    _gate(stack, UNITARITY_TOL)
    tr_r, tr_t = _purities(stack)
    d = math.isqrt(stack.shape[-1])
    return _entanglement(tr_r, d), _entanglement(tr_t, d), _power(tr_r, tr_t, d)


def _check_mc_samples(n_samples) -> int:
    """``n_samples`` as an int, if an integer within the MC limits, by ``_check_int``."""
    return _check_int(n_samples, MIN_MC_SAMPLES, MAX_MC_SAMPLES, "number of samples")


def _purity(stack: np.ndarray, move: str) -> np.ndarray:
    """Tr[(M M^dag)^2] for M the ``move`` of each operator in the stack.

    M M^dag is Hermitian, so the trace of its square is the sum of |g|^2
    over its entries: a dot product of the float view with itself.
    """
    m = _rearrange(stack, move)
    g = m @ m.conj().transpose(0, 2, 1)
    x = g.view(np.float64).reshape(len(g), -1)
    return np.einsum("ni,ni->n", x, x)


def _purities(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Tr[(U^R U^R^dag)^2], Tr[(U^T1 U^T1^dag)^2]) for each U of the stack."""
    return _purity(stack, "realign"), _purity(stack, "partial_transpose_first")


def _entanglement(tr: np.ndarray, d: int) -> np.ndarray:
    """1 - Tr[(M M^dag)^2] / d^4: E(U) from tr_R, E(S12 U) from tr_T1."""
    return 1.0 - tr / float(d) ** 4


def _power(tr_r: np.ndarray, tr_t: np.ndarray, d: int) -> np.ndarray:
    """Entangling power from the two purities."""
    scale = (d / (d + 1.0)) ** 2
    return scale * (2.0 - swap_entanglement(d)) - (tr_r + tr_t) / ((d + 1.0) ** 2 * d * d)


def _mc_estimates(
    stack: np.ndarray, n_samples: int, seed: int, tol: float = UNITARITY_TOL
) -> list[McEstimate]:
    """One ``McEstimate`` for each U of an (k, d^2, d^2) stack, all from the
    same ``n_samples`` product states of one generator seeded with ``seed``.

    Checks the sample count, the seed and then the stack's gate, in that
    order, before anything is drawn, and raises as ``entangling_power_mc``
    does.  Each estimate is its own row's n-sample mean and standard error.
    """
    n_samples = _check_mc_samples(n_samples)
    seed = _check_seed(seed)
    _gate(stack, tol)
    entropies = _sample_entropies(stack, n_samples, np.random.default_rng(seed))
    estimates = []
    for row in entropies:
        mean = row.mean()
        # the sample standard deviation (ddof=1), computed in place: the steps
        # of row.std(ddof=1), and its bits, without its (n,) temporary
        np.subtract(row, mean, out=row)
        np.multiply(row, row, out=row)
        std = math.sqrt(np.add.reduce(row) / (n_samples - 1))
        estimates.append(McEstimate(
            mean=float(mean),
            stderr=std / math.sqrt(n_samples),
            n_samples=n_samples,
            seed=seed,
        ))
    return estimates


def _sample_entropies(stack: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Linear entropies of each U of a (k, d^2, d^2) stack, d read from its
    shape, applied to the same n sampled product states, as a (k, n) array.

    Samples are drawn and evaluated in the chunks ``_spans`` cuts at
    ``_MC_CHUNK_BYTES``; the sampler's draw order makes the states those of
    one call.  The calling thread draws chunk i+1 while one worker thread,
    which lives for this call, runs ``_entropy_kernel`` on chunk i and writes
    that chunk's slice of the result.  Only the caller touches ``rng``, and
    the kernel shares nothing with it but that slice, so the draws and each
    chunk's arithmetic, and with them the bits, are those of drawing and
    evaluating the chunks one after the other.  An exception in the kernel is
    raised here, after the worker has stopped.
    """
    # imported here, not with the package: ``import entpow`` stays without it
    from concurrent.futures import ThreadPoolExecutor

    k, d = len(stack), math.isqrt(stack.shape[-1])
    # Per sample, the kernel's four (k, d^2) complex arrays (the coefficients,
    # their conjugate, rho and the product added to it) take 64 k d^2 bytes,
    # the state 16 d^2, and the sampler's draw and its two complex (2, d)
    # copies 96 d: 4096 samples at d = 2 for one operator, 845 at d = 5.
    spans = _spans(n, 64 * k * d * d + 16 * d * d + 96 * d, _MC_CHUNK_BYTES)
    entropies = np.empty((k, n))
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="entpow-mc") as worker:
        done = None
        for lo, hi in spans:
            # a one-item list: the kernel takes the states out of it, so that
            # they are freed after its GEMM whatever the threads' timing
            chunk = [product_state_batch(rng, hi - lo, d)]
            if done is not None:
                done.result()
            done = worker.submit(_entropy_kernel, stack, chunk, entropies[:, lo:hi])
        done.result()
    return entropies


def _entropy_kernel(stack: np.ndarray, chunk: list, out: np.ndarray) -> None:
    """Pop an (s, d^2) array of states from the list ``chunk`` and write the
    (k, s) linear entropies of each U of the (k, d^2, d^2) stack (d from its shape) to ``out``.

    One GEMM, of the (k d^2, d^2) stacked operators with the states, gives
    the coefficients C[u, i, j, s] of U|psi_s> with the sample axis last, so
    the reduced state rho = C C^dag of every operator and sample is
    accumulated over j with elementwise products, and its purity is the sum
    of |rho|^2 over the float view.  The sampler's states are the transposed
    view of a C-contiguous (d^2, s) buffer, which is the GEMM's right
    operand, and they are freed as soon as the GEMM has read them.  A stack
    of one takes the steps, and the bits, of a single operator.
    """
    k, d, s = len(stack), math.isqrt(stack.shape[-1]), out.shape[1]
    c = (stack.reshape(k * d * d, d * d) @ chunk.pop().T).reshape(k, d, d, s)
    cc = c.conj()
    rho = c[:, :, None, 0] * cc[:, None, :, 0]
    for j in range(1, d):
        rho += c[:, :, None, j] * cc[:, None, :, j]
    x = rho.view(np.float64).reshape(k, d * d, 2 * s)
    # re^2 and im^2 of each sample, interleaved
    sq = np.einsum("kis,kis->ks", x, x)
    np.subtract(1.0, sq[:, 0::2] + sq[:, 1::2], out=out)
