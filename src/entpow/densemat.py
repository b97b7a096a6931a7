"""Dense complex matrix kernel.

A matrix here is a 2-D ``numpy.ndarray`` of ``complex128`` entries in
row-major (C) order.  Every public function validates its input and raises
``ValueError`` on dimension mismatches and on entries that are non-finite,
strings, bytes or None, or not convertible to complex; nothing is ever
broadcast silently.  Sizes stay small (at most 256 x 256), so no blocking or
sparsity is needed.  The input rules several modules share -- ``_check_int``
and ``_check_real``, the one integer and real rules, ``_check_local_dim`` --
are written here once, and every rule's message shows the value by ``_echo``.
So is the one unitarity policy: ``_gate`` compares the defect of every operator
stack, controlled-U block and report with its tolerance.  So are the byte
budgets and ``_spans``, which cuts every Monte-Carlo chunk and, as
``_stack_spans``, every operator stack of a sweep or of ``verify``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Collection, Iterator, Mapping
from itertools import chain

import numpy as np

__all__ = [
    "UNITARITY_TOL",
    "UnitarityError",
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

# Byte budgets, each defined here once.  Operator entries per stack, read by
# _stack_spans alone: 256 operators at d = 2, 16 at d = 4, 1 from d = 8.
_STACK_BYTES = 64 * 1024
# Every array one Monte-Carlo chunk allocates.  A chunk costs the estimate a
# thread handoff (see ``entanglement._sample_entropies``), so chunks are few
# and large.
_MC_CHUNK_BYTES = 2 * 1024 * 1024
# The states of one ``product_state_batch`` call, 16 d^2 bytes each: the
# 10,000,000 states of the largest Monte-Carlo estimate at d = 2.
_STATE_BYTES = 640_000_000

# Longest text ``_echo`` shows whole: any integer of up to 40 digits, signed.
_ECHO_CHARS = 41
# Most items ``_echo`` lets a container and the containers in it hold, all
# told, before it names the container instead of building its text.
_ECHO_ITEMS = 10_000


class UnitarityError(ValueError):
    """Raised when an operator fails the unitarity gate.

    Carries the defect (max-abs entry of U^dag U - I), the tolerance it
    was checked against and the index, in its stack, of the matrix that
    failed.
    """

    def __init__(self, defect: float, tol: float, index: int = 0):
        super().__init__(
            f"operator is not unitary: defect {defect:.6e} exceeds tolerance {tol:.1e}"
        )
        self.defect = float(defect)
        self.tol = float(tol)
        self.index = int(index)


def _check_local_dim(d) -> int:
    """``d`` as an int, if an integer from 2 to ``_MAX_D``, by ``_check_int``."""
    return _check_int(d, 2, _MAX_D, "local dimension")


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array in row-major order; the
    ValueError for non-finite input names the first such entry.

    Strings and bytes are not numbers here, although numpy would parse them,
    and neither is None, which numpy would make NaN.  An ndarray subclass,
    such as ``np.matrix``, comes back as a plain ndarray.
    """
    try:
        a = np.asarray(a)
        if a.dtype.kind in "SU" or (
            a.dtype.kind == "O" and any(isinstance(x, (str, bytes, type(None))) for x in a.flat)
        ):
            raise TypeError("strings, bytes and None are not accepted")
        m = a.astype(np.complex128, order="C", copy=False)  # a 0-d input stays 0-d
    except TypeError as err:  # an entry that is not a number, such as a dict or a string
        raise ValueError(f"matrix entries must be numbers: {err}") from None
    except OverflowError:  # a Python integer beyond float range
        raise ValueError("matrix entry is out of float range") from None
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

    ``unitarity_defect``, ``_gate`` and ``verify`` compute every defect here,
    so there is one definition of it.  A non-finite entry, or a product that
    overflows, gives a NaN or infinite defect, which no tolerance admits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = stack.conj().transpose(0, 2, 1) @ stack
        idx = np.arange(stack.shape[-1])
        g[:, idx, idx] -= 1.0
        return np.abs(g).max(axis=(1, 2))


def _gate(stack: np.ndarray, tol: float) -> np.ndarray:
    """The one unitarity gate, for an (n, m, m) stack; returns the defects.

    Raises ValueError for a tolerance that ``_check_real`` rejects or that is
    negative, and UnitarityError, with that matrix's own defect and index, for
    the first matrix whose defect is not within ``tol``.  A NaN or infinite
    defect, from non-finite entries or overflowing products, never passes.
    """
    # ``defect > tol`` is false for a NaN tol, and an infinite one admits
    # every operator, so either would let any input past the gate.
    tol = _check_real(tol, "unitarity tolerance")
    if tol < 0:
        raise ValueError(f"unitarity tolerance must be nonnegative, got {_echo(tol)}")
    defects = _unitarity_defects(stack)
    bad = np.flatnonzero(~(defects <= tol))
    if bad.size:
        raise UnitarityError(defects[bad[0]], tol, bad[0])
    return defects


def _spans(n: int, item_bytes: int, budget: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) bounds of spans of ``max(1, budget // item_bytes)`` of n items of
    ``item_bytes`` bytes each, the last one possibly shorter: the one rule that
    turns a byte budget into chunks.  Lazy: nothing it keeps grows with n."""
    step = max(1, budget // item_bytes)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def _stack_spans(n: int, d: int) -> Iterator[tuple[int, int]]:
    """The ``_spans`` of n operators at local dimension d, 16 d^4 bytes each."""
    return _spans(n, 16 * d**4, _STACK_BYTES)


def _check_int(x, lo: int, hi: int, name: str) -> int:
    """``x`` as a Python int, if a Python or NumPy integer, not a bool, from
    ``lo`` to ``hi``: the one integer rule and message of every integer input."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and lo <= int(x) <= hi:
        return int(x)
    raise ValueError(f"{name} must be an integer from {lo} to {hi}, got {_echo(x)}")


def _check_real(x, name: str) -> float:
    """``x`` as a Python float, if a real number, not a bool, whose float value
    is finite: the one real rule and message of every real input.  Compare the
    float, never ``x``: a NumPy scalar warns against a large Python float."""
    try:
        if isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(float(x)):
            return float(x)
    except OverflowError:  # an int or a Fraction beyond float range
        pass
    raise ValueError(f"{name} must be a finite number, got {_echo(x)}")


def _echo(x) -> str:
    """``repr(x)`` for an input rule's message, a NumPy scalar shown as its
    Python value; text of more than ``_ECHO_CHARS`` characters is shortened
    to its leading characters and its length.

    A list, tuple, dict, set or frozenset of more than ``_ECHO_CHARS`` items
    has a longer repr than that, which costs time and memory with every item,
    so it is named by its type and length instead, without building the text.
    A container of any type that holds, with the containers nested in it,
    more than ``_ECHO_ITEMS`` items all told gives a stand-in that names its
    type, found without building the text, and so does an integer past the
    4300 digits Python converts to text, alone or in a container, or nesting
    too deep for ``repr``.  A long double is shown by ``str``.
    """
    if isinstance(x, np.generic):
        x = x.item()
    name = type(x).__name__
    kind = f"{'an' if name[0] in 'aeiou' else 'a'} {name}"
    if isinstance(x, (list, tuple, dict, set, frozenset)) and len(x) > _ECHO_CHARS:
        return f"{kind} of {len(x)} items"
    if _nested_items(x) > _ECHO_ITEMS:
        return f"{kind} too long to show"
    try:
        text = str(x) if isinstance(x, np.generic) else repr(x)
    except (ValueError, RecursionError):  # an integer past the digit limit, or deep nesting
        return f"{kind} too long to show"
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:12]}... ({len(text)} characters)"


def _nested_items(x) -> int:
    """Items of ``x`` and of every container in it, counted until they pass
    ``_ECHO_ITEMS``; a container met twice counts twice, as its repr shows it
    twice.  Text, ranges and arrays are not walked: their repr is cut, short
    or summarised."""
    count, todo = 0, [x]
    while todo and count <= _ECHO_ITEMS:
        y = todo.pop()
        if isinstance(y, Collection) and not isinstance(
                y, (str, bytes, bytearray, range, np.ndarray)):
            count += len(y)
            if count <= _ECHO_ITEMS:
                todo.extend(chain(y.keys(), y.values()) if isinstance(y, Mapping) else y)
    return count
