"""Constructors for the operator families under study, plus seeded samplers.

Covers the swap operator, the one-parameter family exp(-i*t*S12) generated
by the swap, general controlled-U gates and Haar-random unitaries.  Every
constructor, and the product-state sampler, checks that d is from 2 to 16
before building or drawing anything, by the one integer rule
``densemat._check_int``, which checks every integer input.  Once every block
of a controlled-U spec has its shape checked, its blocks pass the one
unitarity gate, ``densemat._gate``, at ``UNITARITY_TOL`` in one call, as one
stack, and the first failing block is named; stacked random controlled-U
gates pass the same gate once, as whole operators, in
``entanglement._measures``, not block by block.

Random sampling is deterministic.  ``haar_unitary`` takes an integer seed
from 0 to 2**64 - 1, the one seed range of the package and its command
line, checked by ``_check_seed`` before anything is drawn, and seeds a fresh
``numpy.random.default_rng`` (PCG64) generator with it, so identical seeds
give bitwise identical output on the same numpy, the same BLAS build and
the same BLAS thread count, which can change the rounding of the Haar QR.
Haar unitaries of side 3 or less are orthonormalised by a stacked
Gram-Schmidt, ``_gram_schmidt``, of pure numpy arithmetic, and larger ones
by LAPACK's QR with a phase fix; both give Q with R's diagonal positive
real, the convention under which the draw is exactly Haar.  The stacked
samplers -- Haar unitaries and the Monte-Carlo estimator's product states,
``product_state_batch`` -- draw from a generator their caller owns,
sample-major, so n samples drawn over several calls on one generator are
bitwise the samples of one call.  The product states are a draw,
``_draw_states``, and a finish of pure arithmetic, ``_finish_states``,
which the estimator's worker thread runs for every chunk but the last
when k d^2 <= 9 (``entanglement._sample_entropies``).  No shared
generator state is kept anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densemat import UNITARITY_TOL, _MAX_D, _STATE_BYTES, UnitarityError, _check_int
from .densemat import _check_local_dim, _check_real, _echo, _gate, as_complex_matrix
from .rearrange import BipartiteOperator, _rearrange

__all__ = [
    "ControlledUSpec",
    "swap_op",
    "exp_swap",
    "controlled_u",
    "haar_unitary",
    "product_state_batch",
]

# The seed of ``SweepSpec``, ``verify.run_acceptance`` and every ``--seed`` flag.
DEFAULT_SEED = 1

# The largest side that ``_haar_stack`` orthonormalises by Gram-Schmidt.
# Larger sides keep LAPACK's QR and so their bits, which the ``haar`` sweeps
# and the pinned Monte-Carlo estimates rest on; from side 9 on, QR is also
# the faster.
_GRAM_SCHMIDT_SIDE = 3


def _check_seed(seed) -> int:
    """``seed`` as an int, if an integer from 0 to 2**64 - 1, by ``_check_int``."""
    return _check_int(seed, 0, 2**64 - 1, "seed")


@dataclass(frozen=True, eq=False)
class ControlledUSpec:
    """Blocks of a controlled-U gate: exactly d unitary d x d matrices.

    Block n is applied to the second qudit when the first is in state |n>.
    """

    d: int
    blocks: tuple

    def __post_init__(self):
        d = _check_local_dim(self.d)
        blocks = tuple(map(as_complex_matrix, self.blocks)) if np.iterable(self.blocks) else None
        if blocks is None or len(blocks) != d:
            got = _echo(self.blocks) if blocks is None else len(blocks)
            raise ValueError(f"controlled-U at local dimension {d} needs exactly {d} blocks, "
                             f"got {got}")
        for n, b in enumerate(blocks):
            if b.shape != (d, d):
                raise ValueError(f"block {n} must be {d}x{d}, got {b.shape[0]}x{b.shape[1]}")
        try:
            _gate(np.stack(blocks), UNITARITY_TOL)
        except UnitarityError as err:
            raise ValueError(f"block {err.index} is not unitary: "
                             f"defect {err.defect:.3e} exceeds {err.tol:.1e}") from None
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "blocks", blocks)


def swap_op(d: int) -> BipartiteOperator:
    """The swap operator S12, with entry 1 at [(i,j),(j,i)] and 0 elsewhere:
    the identity with its rows moved by ``swap_left``."""
    d = _check_local_dim(d)
    eye = np.eye(d * d, dtype=np.complex128)
    return BipartiteOperator(d, _rearrange(eye[None], "swap_left")[0])


def exp_swap(d: int, t: float) -> BipartiteOperator:
    """The swap-generated unitary exp(-i*t*S12) = cos(t) I - i sin(t) S12.

    One-parameter group in t, a float by ``densemat._check_real``; at
    t = pi/4 this is the sqrt-of-swap gate, at t = pi/2 it equals -i S12.
    """
    d = _check_local_dim(d)
    t = _check_real(t, "parameter t")
    return BipartiteOperator(d, _exp_swap_stack(d, np.array([t]))[0])


def controlled_u(spec: ControlledUSpec) -> BipartiteOperator:
    """Controlled-U gate: applies block n to the second qudit when the
    first is in |n>.  Block-diagonal in the composite index, with block n
    occupying rows and columns n*d ... n*d + d - 1."""
    return BipartiteOperator(spec.d, _controlled_u_stack(np.stack(spec.blocks)[None])[0])


def haar_unitary(d_total: int, seed: int) -> np.ndarray:
    """Haar-distributed d_total x d_total unitary, deterministic in ``seed``.

    The Q factor of a complex Gaussian (Ginibre) matrix whose triangular
    factor R has a positive real diagonal -- the phase convention under
    which the distribution is exactly Haar.  Up to d_total = 3, Q comes from
    Gram-Schmidt, whose R is positive by construction; from 4 on, from
    numpy's QR with R's diagonal phases moved into Q.

    Raises ValueError, before anything is drawn, unless ``d_total`` is an
    integer from 1 to 256 (d = 16 on each side) and ``seed`` an integer from
    0 to 2**64 - 1.
    """
    d_total = _check_int(d_total, 1, _MAX_D**2, "dimension")
    return _haar_stack(d_total, 1, np.random.default_rng(_check_seed(seed)))[0]


def _exp_swap_stack(d: int, ts: np.ndarray) -> np.ndarray:
    """exp(-i*t*S12) = cos(t) I - i sin(t) S12 for every t of a 1-D array, as
    an (n, d^2, d^2) stack: -i sin(t) is written on the diagonal of a zeroed
    stack, ``swap_left`` moves its rows into the pattern of S12, and cos(t) is
    added on the diagonal of the moved copy."""
    n = d * d
    stack = np.zeros((len(ts), n * n), dtype=np.complex128)
    # complex(0, -1), not -1j = complex(-0.0, -1.0): times sin(0) = 0 it gives
    # +0, not -0.0, so exp_swap(d, 0) is the identity bitwise
    stack[:, :: n + 1] = complex(0, -1) * np.sin(ts)[:, None]
    stack = _rearrange(stack.reshape(-1, n, n), "swap_left")
    stack.reshape(-1, n * n)[:, :: n + 1] += np.cos(ts)[:, None]
    return stack


def _controlled_u_stack(blocks: np.ndarray) -> np.ndarray:
    """Controlled-U gates from an (n, d, d, d) array: block [k, c] acts on the
    second qudit when the first is in |c>.  Returns an (n, d^2, d^2) stack."""
    n, d = blocks.shape[:2]
    m = np.zeros((n, d, d, d, d), dtype=np.complex128)
    for c in range(d):
        m[:, c, :, c, :] = blocks[:, c]
    return m.reshape(n, d * d, d * d)


def _random_controlled_u_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n controlled-U gates at local dimension d whose d blocks each are Haar
    unitaries drawn from ``rng``, gate by gate.  Callers gate the stack at
    ``UNITARITY_TOL``, the blocks' tolerance: a gate's defect is its worst block's."""
    return _controlled_u_stack(_haar_stack(d, n * d, rng).reshape(n, d, d, d))


def _haar_stack(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar unitaries of size m x m from ``rng``, as an (n, m, m) stack.

    The draws are sample-major: each matrix takes its real parts, then its
    imaginary parts, before the next matrix starts.  Each Ginibre matrix is
    orthonormalised with R's diagonal positive real: up to side
    ``_GRAM_SCHMIDT_SIDE`` by ``_gram_schmidt``, which needs no phase fix,
    and above it by numpy's stacked QR and the phase fix.  Both factor each
    matrix on its own, so n matrices drawn over several calls on one
    generator are bitwise the matrices of one call.
    """
    z = rng.standard_normal((n, 2, m, m))
    z = z[:, 0] + 1j * z[:, 1]
    z /= math.sqrt(2.0)
    if m <= _GRAM_SCHMIDT_SIDE:
        return _gram_schmidt(z)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """The Q factor, with R's diagonal positive real, of each matrix of an
    (n, m, m) stack, by classical Gram-Schmidt applied twice.

    Column j is projected off the finished columns in two passes and then
    divided by its norm, which is R's diagonal entry, so no phase fix
    follows.  Every step is elementwise or an ``einsum`` over the stack
    axis, so a matrix's bits do not depend on the stack it is in.
    """
    q = np.empty_like(z)
    for j in range(z.shape[-1]):
        v = z[:, :, j].copy()
        done = q[:, :, :j]
        conj = done.conj()
        for _ in range(2 if j else 0):
            v -= np.einsum("nik,nk->ni", done, np.einsum("nik,ni->nk", conj, v))
        w = v.view(np.float64)
        w /= np.sqrt(np.einsum("nx,nx->n", w, w))[:, None]
        q[:, :, j] = v
    return q


def product_state_batch(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random product states |psi1>|psi2>, one per row of an (n, d^2) array.

    Each factor is an independent complex standard-Gaussian d-vector,
    normalized.  The draws are sample-major: each sample takes the real and
    then the imaginary parts of psi1, then those of psi2, before the next
    sample starts, so n samples drawn over several calls on one generator
    are bitwise the states of one call.

    The call is the generator's draw, ``_draw_states``, then the arithmetic
    that makes states of it, ``_finish_states``.  Every pass after the draw
    runs with the sample axis last and contiguous: the factors are copied
    into a (2, d, n) array, each squared norm sums the real parts of
    conj(z) * z over its d rows in order, and one broadcast product writes
    the outer product into a (d, d, n) buffer.  The result is that buffer's
    transposed view, so its ``.T`` is the C-contiguous (d^2, n) operand of a
    GEMM.  Besides the result, at most two arrays of the draw's size, 32 d
    bytes per sample, are alive at once.  The Monte-Carlo estimator calls
    this while its worker thread is busy (see
    ``entanglement._sample_entropies``), so the outer product is one call,
    not d: each numpy call can wait for the worker to hand back the GIL.

    Raises ValueError, before anything is drawn, unless ``d`` is an integer
    from 2 to 16 and ``n`` an integer from 0 to the states of 16 d^2 bytes
    that fit ``densemat._STATE_BYTES``, 640 MB: the Monte-Carlo cap at d = 2.
    """
    d = _check_local_dim(d)
    n = _check_int(n, 0, _STATE_BYTES // (16 * d * d), "number of states")
    return _finish_states(_draw_states(rng, n, d))


def _draw_states(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """The generator's normals for n product states at local dimension d, as
    an (n, 2, 2, d) array: sample, factor, real or imaginary part, entry.

    The one home of the draw's layout and of every read of ``rng`` the
    product states make; n and d are not checked.
    """
    return rng.standard_normal((n, 2, 2, d))


def _finish_states(draw: np.ndarray) -> np.ndarray:
    """The product states of an (n, 2, 2, d) draw of ``_draw_states``, n and d
    read from its shape, as the transposed view of a (d^2, n) buffer.

    Pure arithmetic on the draw, the same on any thread.  The draw is freed
    here, before the norm, when the caller keeps no reference to it.
    """
    n, d = draw.shape[0], draw.shape[-1]
    z = np.empty((2, d, n), dtype=np.complex128)
    z.real = draw[:, :, 0].transpose(1, 2, 0)
    z.imag = draw[:, :, 1].transpose(1, 2, 0)
    del draw
    sq = np.conjugate(z)
    np.multiply(sq, z, out=sq)
    norm = sq.real[:, 0] + sq.real[:, 1]
    for i in range(2, d):
        np.add(norm, sq.real[:, i], out=norm)
    del sq
    z /= np.sqrt(norm, out=norm)[:, None, :]
    del norm
    states = np.empty((d, d, n), dtype=np.complex128)
    np.multiply(z[0, :, None], z[1, None], out=states)
    return states.reshape(d * d, n).T
