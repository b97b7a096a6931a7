"""Constructors for the operator families under study, plus seeded samplers.

Covers the swap operator, the maximally entangled projector, the
one-parameter family exp(-i*t*S12) generated by the swap, general
controlled-U gates and Haar-random unitaries.  Every constructor checks
that d is from 2 to 16 before building anything.  The blocks of a
controlled-U spec pass the unitarity tolerance ``densemat.UNITARITY_TOL``;
stacked random controlled-U gates are checked once, as whole operators, by
the gate of ``entanglement._measures``, not block by block.

Random sampling is deterministic.  ``haar_unitary`` takes an integer seed
with ``0 <= seed < 2**64``, the one seed range of the package and its
command line, checked before anything is drawn, and seeds a fresh
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

from .densemat import UNITARITY_TOL, _MAX_D, _check_local_dim, _is_finite, _is_int
from .densemat import _unitarity_defects, as_complex_matrix
from .rearrange import BipartiteOperator

__all__ = [
    "ControlledUSpec",
    "swap_op",
    "max_entangled_projector",
    "exp_swap",
    "controlled_u",
    "haar_unitary",
    "product_state_batch",
]

_SEED_LIMIT = 2**64


def _check_seed(seed) -> int:
    """``seed`` as an int, if a non-bool integer with 0 <= seed < ``_SEED_LIMIT``."""
    if not (_is_int(seed) and 0 <= seed < _SEED_LIMIT):
        raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True, eq=False)
class ControlledUSpec:
    """Blocks of a controlled-U gate: exactly d unitary d x d matrices.

    Block n is applied to the second qudit when the first is in state |n>.
    """

    d: int
    blocks: tuple

    def __post_init__(self):
        d = _check_local_dim(self.d)
        blocks = tuple(as_complex_matrix(b) for b in self.blocks)
        if len(blocks) != d:
            raise ValueError(
                f"controlled-U at local dimension {d} needs exactly {d} blocks, "
                f"got {len(blocks)}"
            )
        for n, b in enumerate(blocks):
            if b.shape != (d, d):
                raise ValueError(f"block {n} must be {d}x{d}, got {b.shape[0]}x{b.shape[1]}")
        _check_blocks(np.stack(blocks))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "blocks", blocks)


def swap_op(d: int) -> BipartiteOperator:
    """The swap operator S12, with entry 1 at [(i,j),(j,i)] and 0 elsewhere."""
    d = _check_local_dim(d)
    n = d * d
    s = np.zeros((n, n), dtype=np.complex128)
    rows = np.arange(n)
    i, j = rows // d, rows % d
    s[rows, j * d + i] = 1.0
    return BipartiteOperator(d, s)


def max_entangled_projector(d: int) -> BipartiteOperator:
    """Rank-1 projector onto the maximally entangled state sum_i |i>|i> / sqrt(d).

    Entry [(i,j),(k,l)] is 1/d when i == j and k == l, else 0.
    """
    d = _check_local_dim(d)
    p = np.zeros((d * d, d * d), dtype=np.complex128)
    diag = np.arange(d) * (d + 1)
    p[np.ix_(diag, diag)] = 1.0 / d
    return BipartiteOperator(d, p)


def exp_swap(d: int, t: float) -> BipartiteOperator:
    """The swap-generated unitary exp(-i*t*S12) = cos(t) I - i sin(t) S12.

    One-parameter group in t; at t = pi/4 this is the sqrt-of-swap gate,
    at t = pi/2 it equals -i S12.
    """
    d = _check_local_dim(d)
    if not _is_finite(t):
        raise ValueError(f"parameter t must be finite, got {t!r}")
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
    integer from 1 to 256 (d = 16 on each side) and ``seed`` an integer with
    ``0 <= seed < 2**64``.
    """
    if not (_is_int(d_total) and 1 <= d_total <= _MAX_D**2):
        raise ValueError(f"dimension must be an integer from 1 to {_MAX_D**2}, got {d_total!r}")
    _check_seed(seed)
    return _haar_stack(int(d_total), 1, np.random.default_rng(seed))[0]


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


def _check_blocks(blocks: np.ndarray) -> None:
    """Raise ValueError naming the first block of a (d, d, d) array that
    fails the unitarity tolerance."""
    defects = _unitarity_defects(blocks)
    bad = np.flatnonzero(~(defects <= UNITARITY_TOL))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"block {k} is not unitary: defect {defects[k]:.3e} exceeds {UNITARITY_TOL:.1e}"
        )


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

    Each temporary is freed as soon as it is used, so at most two of its
    arrays are alive at once; the norm takes the steps, and the bits, of
    ``np.linalg.norm(z, axis=2)``.
    """
    g = rng.standard_normal((n, 2, 2, d))
    z = np.empty((n, 2, d), dtype=np.complex128)
    z.real = g[:, :, 0]
    z.imag = g[:, :, 1]
    del g
    sq = np.conjugate(z)
    np.multiply(sq, z, out=sq)
    z /= np.sqrt(np.add.reduce(sq.real, axis=2, keepdims=True))
    del sq
    return (z[:, 0, :, None] * z[:, 1, None, :]).reshape(n, d * d)
