"""Index rearrangements of two-qudit operators.

An operator on C^d (x) C^d is a d^2 x d^2 matrix.  The composite basis ket
|i>|j> (i, j zero-based) maps to the flat row/column index i*d + j; writing
an entry as U[(i,j),(k,l)] means row i*d+j, column k*d+l.

All rearrangements here are pure entry moves: they are implemented as
reshape/transpose on the underlying array and involve no arithmetic, so the
structural identities they satisfy (involutions, the swap-multiplication
identity) hold bitwise, not merely to a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densemat import _check_local_dim, as_complex_matrix

__all__ = [
    "BipartiteOperator",
    "realign",
    "partial_transpose_first",
    "partial_transpose_second",
    "swap_left",
    "swap_right",
]


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """A dense d^2 x d^2 operator on two qudits of local dimension d.

    The local dimension d is an integer from 2 to 16.  The matrix is stored
    as a read-only complex128 copy in row-major order, with basis ket |i>|j>
    at flat index i*d + j.  Instances are immutable and safe to share across
    threads.
    """

    d: int
    mat: np.ndarray

    def __post_init__(self):
        d = _check_local_dim(self.d)
        n = d * d
        m = as_complex_matrix(self.mat).copy()
        if m.shape != (n, n):
            raise ValueError(
                f"operator at local dimension {d} must be {n}x{n}, "
                f"got {m.shape[0]}x{m.shape[1]}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mat", m)


# The one table of entry moves.  Each move views a d^2 x d^2 matrix as the
# 4-index array [row1, row2, col1, col2] and permutes its axes; the tuple is
# the axis order of the result.  The scalar functions below and the batched
# evaluation in ``entanglement`` both read it, so they cannot drift apart.
_AXES = {
    "realign": (0, 2, 1, 3),
    "partial_transpose_first": (2, 1, 0, 3),
    "partial_transpose_second": (0, 3, 2, 1),
    "swap_left": (1, 0, 2, 3),
    "swap_right": (0, 1, 3, 2),
}
# The same permutations behind a leading stack axis.
_STACK_AXES = {move: (0, *(1 + a for a in axes)) for move, axes in _AXES.items()}


def realign(u: BipartiteOperator) -> BipartiteOperator:
    """Realignment: output entry [(i,j),(k,l)] is the input entry [(i,k),(j,l)].

    The singular values of the realigned matrix are the operator Schmidt
    coefficients of ``u``.  Applying realign twice restores ``u`` bitwise.
    """
    return _moved(u, "realign")


def partial_transpose_first(u: BipartiteOperator) -> BipartiteOperator:
    """Transpose over the first factor: output [(i,j),(k,l)] = input [(k,j),(i,l)]."""
    return _moved(u, "partial_transpose_first")


def partial_transpose_second(u: BipartiteOperator) -> BipartiteOperator:
    """Transpose over the second factor: output [(i,j),(k,l)] = input [(i,l),(k,j)].

    Composing with :func:`partial_transpose_first` gives the full transpose.
    """
    return _moved(u, "partial_transpose_second")


def swap_left(u: BipartiteOperator) -> BipartiteOperator:
    """Left-multiply by the swap operator, as an exact row permutation.

    Output row (i,j) is input row (j,i), so the result equals S12 @ U with
    no floating-point arithmetic performed.
    """
    return _moved(u, "swap_left")


def swap_right(u: BipartiteOperator) -> BipartiteOperator:
    """Right-multiply by the swap operator, as an exact column permutation.

    Output column (k,l) is input column (l,k); the result equals U @ S12.
    """
    return _moved(u, "swap_right")


def _moved(u: BipartiteOperator, move: str) -> BipartiteOperator:
    return BipartiteOperator(u.d, _rearrange(u.mat[None], u.d, move)[0])


def _rearrange(stack: np.ndarray, d: int, move: str) -> np.ndarray:
    """Apply ``move`` to every matrix of an (n, d^2, d^2) stack."""
    n = d * d
    return stack.reshape(-1, d, d, d, d).transpose(_STACK_AXES[move]).reshape(-1, n, n)
