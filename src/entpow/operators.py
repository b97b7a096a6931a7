"""Constructors for the operator families under study, plus seeded samplers.

Covers the swap operator, the maximally entangled projector, the
one-parameter family exp(-i*t*S12) generated by the swap, general
controlled-U gates, Haar-random unitaries, and Haar-random product states.

Random sampling is deterministic: every sampler takes a 64-bit seed and
feeds it to a fresh ``numpy.random.default_rng`` (PCG64) generator, so
identical seeds give bitwise identical output.  No shared generator state
is kept anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densemat import _unitarity_defects, as_complex_matrix
from .rearrange import BipartiteOperator

__all__ = [
    "ControlledUSpec",
    "PureStateVector",
    "identity_op",
    "swap_op",
    "max_entangled_projector",
    "exp_swap",
    "controlled_u",
    "haar_unitary",
    "random_product_state",
    "product_state_batch",
]

BLOCK_UNITARITY_TOL = 1e-9
STATE_NORM_TOL = 1e-9


def _check_local_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {d!r}")
    return int(d)


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
                raise ValueError(
                    f"block {n} must be {d}x{d}, got {b.shape[0]}x{b.shape[1]}"
                )
        _check_blocks(np.stack(blocks)[None])
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True, eq=False)
class PureStateVector:
    """Normalized pure state of two qudits, amplitudes in composite index order."""

    d: int
    amplitudes: np.ndarray

    def __post_init__(self):
        d = _check_local_dim(self.d)
        amp = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=np.complex128))
        if amp.ndim != 1 or amp.shape[0] != d * d:
            raise ValueError(f"state at local dimension {d} needs {d * d} amplitudes")
        if not np.isfinite(amp).all():
            raise ValueError("state contains non-finite amplitudes")
        norm_sq = float(np.sum(amp.real**2 + amp.imag**2))
        if abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state is not normalized: squared norm {norm_sq!r}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "amplitudes", amp)

    def coefficient_matrix(self) -> np.ndarray:
        """The d x d matrix A with A[i, j] = amplitude of |i>|j>."""
        return self.amplitudes.reshape(self.d, self.d)


def identity_op(d: int) -> BipartiteOperator:
    """Identity on the composite d^2-dimensional space."""
    d = _check_local_dim(d)
    return BipartiteOperator(d, np.eye(d * d, dtype=np.complex128))


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
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"parameter t must be finite, got {t}")
    return BipartiteOperator(d, _exp_swap_stack(d, np.array([t]))[0])


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
    """
    if d_total < 1:
        raise ValueError(f"dimension must be positive, got {d_total}")
    return as_complex_matrix(_haar_stack(d_total, [seed])[0])


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
    """Raise ValueError naming the first block of an (n, d, d, d) array that
    fails the block unitarity tolerance."""
    n, d = blocks.shape[:2]
    defects = _unitarity_defects(blocks.reshape(n * d, d, d))
    bad = np.flatnonzero(~(defects <= BLOCK_UNITARITY_TOL))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"block {k % d} is not unitary: defect {defects[k]:.3e} exceeds "
            f"{BLOCK_UNITARITY_TOL:.1e}"
        )


def _haar_stack(m: int, seeds) -> np.ndarray:
    """Haar unitaries of size m x m, one per seed, as an (n, m, m) stack.

    Each seed feeds its own PCG64 generator and the stacked QR factors each
    matrix on its own, so entry k depends on ``seeds[k]`` alone and equals
    ``haar_unitary(m, seeds[k])`` bitwise, whatever the other seeds are.
    """
    z = np.empty((len(seeds), 2, m, m))
    for k, seed in enumerate(seeds):
        # one call draws the real parts, then the imaginary parts
        np.random.default_rng(seed).standard_normal(out=z[k])
    z = z[:, 0] + 1j * z[:, 1]
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def product_state_batch(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random product states |psi1>|psi2>, one per row of an (n, d^2) array.

    Each factor is an independent complex standard-Gaussian d-vector,
    normalized; the first factors of all samples are drawn before the
    second factors.
    """
    p1 = _unit_gaussian_rows(rng, n, d)
    p2 = _unit_gaussian_rows(rng, n, d)
    return (p1[:, :, None] * p2[:, None, :]).reshape(n, d * d)


def random_product_state(d: int, seed: int) -> PureStateVector:
    """Haar-random product state |psi1>|psi2>, deterministic in ``seed``."""
    d = _check_local_dim(d)
    rng = np.random.default_rng(seed)
    return PureStateVector(d, product_state_batch(rng, 1, d)[0])


def _unit_gaussian_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z
