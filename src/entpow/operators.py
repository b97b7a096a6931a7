"""Constructors for the operator families under study, plus seeded samplers.

Covers the swap operator, the maximally entangled projector, the
one-parameter family exp(-i*t*S12) generated by the swap, general
controlled-U gates and Haar-random unitaries.  Every constructor, and the
product-state sampler, checks that d is from 2 to 16 before building or
drawing anything, by the one integer rule ``densemat._check_int``, which
checks every integer input.  Once every block of a controlled-U spec has its
shape checked, its blocks pass the one unitarity gate, ``densemat._gate``, at
``UNITARITY_TOL`` in one call, as one stack, and the first failing block is
named; stacked random controlled-U gates pass the same gate once, as whole
operators, in ``entanglement._measures``, not block by block.

Random sampling is deterministic.  ``haar_unitary`` takes an integer seed
from 0 to 2**64 - 1, the one seed range of the package and its command
line, checked by ``_check_seed`` before anything is drawn, and seeds a fresh
``numpy.random.default_rng`` (PCG64) generator with it, so identical seeds
give bitwise identical output.  The stacked samplers -- Haar unitaries and
the Monte-Carlo estimator's product states, ``product_state_batch`` -- draw
from a generator their caller owns, sample-major, so n samples drawn over
several calls on one generator are bitwise the samples of one call.  No
shared generator state is kept anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densemat import UNITARITY_TOL, _MAX_D, _STATE_BYTES, UnitarityError, _check_int
from .densemat import _check_local_dim, _echo, _gate, _is_finite, as_complex_matrix
from .rearrange import BipartiteOperator, _rearrange

__all__ = [
    "ControlledUSpec",
    "swap_op",
    "max_entangled_projector",
    "exp_swap",
    "controlled_u",
    "haar_unitary",
    "product_state_batch",
]

# The seed of ``SweepSpec``, ``verify.run_acceptance`` and every ``--seed`` flag.
DEFAULT_SEED = 1


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
    return BipartiteOperator(d, _rearrange(np.eye(d * d, dtype=complex)[None], "swap_left")[0])


def max_entangled_projector(d: int) -> BipartiteOperator:
    """Rank-1 projector onto the maximally entangled state sum_i |i>|i> / sqrt(d).

    Entry [(i,j),(k,l)] is 1/d when i == j and k == l, else 0: the
    realignment of the identity, divided by d.
    """
    d = _check_local_dim(d)
    return BipartiteOperator(d, _rearrange(np.eye(d * d, dtype=complex)[None], "realign")[0] / d)


def exp_swap(d: int, t: float) -> BipartiteOperator:
    """The swap-generated unitary exp(-i*t*S12) = cos(t) I - i sin(t) S12.

    One-parameter group in t; at t = pi/4 this is the sqrt-of-swap gate,
    at t = pi/2 it equals -i S12.
    """
    d = _check_local_dim(d)
    if not _is_finite(t):
        raise ValueError(f"parameter t must be finite, got {_echo(t)}")
    return BipartiteOperator(d, _exp_swap_stack(d, np.array([float(t)]))[0])


def controlled_u(spec: ControlledUSpec) -> BipartiteOperator:
    """Controlled-U gate: applies block n to the second qudit when the
    first is in |n>.  Block-diagonal in the composite index, with block n
    occupying rows and columns n*d ... n*d + d - 1."""
    return BipartiteOperator(spec.d, _controlled_u_stack(np.stack(spec.blocks)[None])[0])


def haar_unitary(d_total: int, seed: int) -> np.ndarray:
    """Haar-distributed d_total x d_total unitary, deterministic in ``seed``.

    QR orthonormalization of a complex Gaussian (Ginibre) matrix, with the
    diagonal of the triangular factor normalized to positive reals -- the
    phase convention under which the distribution is exactly Haar.

    Raises ValueError, before anything is drawn, unless ``d_total`` is an
    integer from 1 to 256 (d = 16 on each side) and ``seed`` an integer from
    0 to 2**64 - 1.
    """
    d_total = _check_int(d_total, 1, _MAX_D**2, "dimension")
    return _haar_stack(d_total, 1, np.random.default_rng(_check_seed(seed)))[0]


def _exp_swap_stack(d: int, ts: np.ndarray) -> np.ndarray:
    """exp(-i*t*S12) for every t of a 1-D array, as an (n, d^2, d^2) stack."""
    eye = np.eye(d * d, dtype=np.complex128)
    c = np.cos(ts)[:, None, None]
    s = np.sin(ts)[:, None, None]
    return c * eye - 1j * s * swap_op(d).mat


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
    imaginary parts, before the next matrix starts.  The stacked QR factors
    each matrix on its own, so n matrices drawn over several calls on one
    generator are bitwise the matrices of one call.
    """
    z = rng.standard_normal((n, 2, m, m))
    z = z[:, 0] + 1j * z[:, 1]
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def product_state_batch(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random product states |psi1>|psi2>, one per row of an (n, d^2) array.

    Each factor is an independent complex standard-Gaussian d-vector,
    normalized.  The draws are sample-major: each sample takes the real and
    then the imaginary parts of psi1, then those of psi2, before the next
    sample starts, so n samples drawn over several calls on one generator
    are bitwise the states of one call.

    Every pass after the draw runs with the sample axis last and contiguous:
    the factors are copied into a (2, d, n) array, each squared norm sums
    the real parts of conj(z) * z over its d rows in order, and one
    broadcast product writes the outer product into a (d, d, n) buffer.
    The result is that buffer's transposed view, so its ``.T`` is the
    C-contiguous (d^2, n) operand of a GEMM.  Besides the result, at most
    two arrays of the draw's size, 32 d bytes per sample, are alive at once.
    The outer product is one call, not d, because in the Monte-Carlo
    pipeline each numpy call can wait for the other thread to hand back the
    GIL.

    Raises ValueError, before anything is drawn, unless ``d`` is an integer
    from 2 to 16 and ``n`` an integer from 0 to the states of 16 d^2 bytes
    that fit ``densemat._STATE_BYTES``, 640 MB: the Monte-Carlo cap at d = 2.
    """
    d = _check_local_dim(d)
    n = _check_int(n, 0, _STATE_BYTES // (16 * d * d), "number of states")
    g = rng.standard_normal((n, 2, 2, d))
    z = np.empty((2, d, n), dtype=np.complex128)
    z.real = g[:, :, 0].transpose(1, 2, 0)
    z.imag = g[:, :, 1].transpose(1, 2, 0)
    del g
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
