"""Dense complex matrix kernel.

A matrix here is a 2-D ``numpy.ndarray`` of ``complex128`` entries in
row-major (C) order.  Every public function validates its input and raises
``ValueError`` on dimension mismatches and non-finite entries; nothing is
ever broadcast silently.  Sizes stay small (at most 256 x 256), so no
blocking or sparsity is needed.  Every input rule of the package --
``_is_int``, ``_is_finite``, ``_check_local_dim`` -- is written here once.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "as_complex_matrix",
    "frobenius_norm_sq",
    "unitarity_defect",
]

# Max-abs entry of U^dag U - I tolerated before an operator, or a block of a
# controlled-U gate, is rejected.  Loose enough for matrices read back from
# ~12-digit text, tight enough to protect the U/d normalization the measures
# rely on.
UNITARITY_TOL = 1e-9

# Largest local dimension accepted anywhere input arrives (operators, their
# constructors, sweeps, operator files, extra verify dimensions): d = 16 gives
# the 256 x 256 operators this kernel is sized for (1 MiB each).
_MAX_D = 16


def _check_local_dim(d) -> int:
    """``d`` as an int, if a non-bool Python or NumPy integer from 2 to ``_MAX_D``."""
    if not (_is_int(d) and 2 <= d <= _MAX_D):
        raise ValueError(f"local dimension must be an integer from 2 to {_MAX_D}, got {d!r}")
    return int(d)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array in row-major order; the
    ValueError for non-finite input names the first such entry."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {m.ndim}-D data")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must have positive dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        r, c = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"non-finite entry at row {r}, column {c}")
    return m


def frobenius_norm_sq(a) -> float:
    """Squared Frobenius (Hilbert-Schmidt) norm, sum of |entry|^2.

    Accumulated with ``math.fsum``, which returns the correctly rounded
    sum of the entry magnitudes.  The result therefore depends only on the
    multiset of entries, not on their layout, so rearrangements that merely
    move entries preserve this value exactly.
    """
    a = as_complex_matrix(a)
    sq = a.real * a.real + a.imag * a.imag
    return math.fsum(sq.ravel().tolist())


def unitarity_defect(a) -> float:
    """Max-abs entry of A^dag A - I; zero iff A is exactly unitary."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity is defined for square matrices, got {a.shape[0]}x{a.shape[1]}")
    return float(_unitarity_defects(a[None])[0])


def _unitarity_defects(stack: np.ndarray) -> np.ndarray:
    """Max-abs entry of A^dag A - I for each matrix of an (n, m, m) stack.

    ``unitarity_defect`` and every unitarity gate compute the defect here,
    so there is one definition of it.  Non-finite entries give a NaN or
    infinite defect, which no tolerance admits.
    """
    g = stack.conj().transpose(0, 2, 1) @ stack
    idx = np.arange(stack.shape[-1])
    g[:, idx, idx] -= 1.0
    return np.abs(g).max(axis=(1, 2))


def _is_int(x) -> bool:
    """Whether ``x`` is a Python or NumPy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """Whether ``x`` is a finite real number; a bool, a string or None is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _check_tolerance(tol: float) -> None:
    """Reject a unitarity tolerance that is not a finite number >= 0.

    ``defect > tol`` is false for a NaN tol, and an infinite one admits
    every operator, so either would let any input past a gate.
    """
    if not (_is_finite(tol) and tol >= 0):
        raise ValueError(f"unitarity tolerance must be finite and nonnegative, got {tol}")
