"""Operator file format.

A single JSON document with keys:

    d       local dimension (integer from 2 to 16)
    name    optional text label
    matrix  d^2 x d^2 nested array of [re, im] pairs, row-major

Numbers are written with 17 significant digits so a serialize/parse round
trip reproduces every float64 entry exactly.

Reading is bulk: one ``json.loads``; one pass each checking that every row
has n entries, every entry two leaves and every leaf is a JSON number
(numpy's conversion would accept ``true``, ``"2"`` and ``null``); then one
``np.fromiter`` conversion of all 2 n^2 leaves to float64, viewed as an
n x n complex128 matrix.  Only when a check or the conversion fails does the
reader walk the matrix row by row and entry by entry; the walk reports the
first bad row or entry in row-major order.  Documents longer than 16 MiB
(bytes, or characters for text input) and d above 16 are rejected before
any matrix is built; every rejection is a ``ValueError``.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .densemat import _MAX_D
from .rearrange import BipartiteOperator

__all__ = ["read_operator_file", "serialize_operator"]

# A d=16 Haar operator written with json.dumps(..., indent=4) is 6.8 MiB.
_MAX_BYTES = 16 * 1024 * 1024


def read_operator_file(content: bytes | str) -> tuple[BipartiteOperator, str | None]:
    """Parse an operator document, returning the operator and its label.

    Raises
    ------
    ValueError
        On content over 16 MiB, malformed JSON (message carries
        line/column), d outside 2..16, inconsistent dimensions (message
        states the d^2 expected), or non-finite or non-numeric entries.
    """
    if len(content) > _MAX_BYTES:
        raise ValueError(f"operator file exceeds the {_MAX_BYTES >> 20} MiB limit")
    if isinstance(content, bytes):
        content = content.decode("utf-8")
    try:
        doc = json.loads(content)
    except json.JSONDecodeError as e:
        # str(e) already carries "line L column C"
        raise ValueError(f"malformed operator file: {e}") from None
    except RecursionError:
        raise ValueError("malformed operator file: nesting too deep") from None

    if not isinstance(doc, dict):
        raise ValueError("operator file must be a JSON object with keys 'd' and 'matrix'")
    for key in ("d", "matrix"):
        if key not in doc:
            raise ValueError(f"operator file is missing required key '{key}'")

    d = doc["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError(f"'d' must be an integer >= 2, got {d!r}")
    if d > _MAX_D:
        raise ValueError(f"'d' must be at most {_MAX_D}, got {d}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"'name' must be text, got {name!r}")

    n = d * d
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ValueError(
            f"matrix must have {n} rows ({n} = d^2 for d={d}), "
            f"got {len(matrix) if isinstance(matrix, list) else type(matrix).__name__}"
        )
    out = _convert(matrix, n)
    if out is None:
        out = _walk(matrix, d)
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"non-finite entry at row {r}, column {c}")
    return BipartiteOperator(d, out), name


def serialize_operator(op: BipartiteOperator, name: str | None = None) -> str:
    """Render an operator as the documented JSON text, one matrix row per line."""
    head = ["{", f'  "d": {op.d},']
    if name is not None:
        head.append(f'  "name": {json.dumps(name)},')
    head.append('  "matrix": [')
    rows = []
    for row in op.mat:
        cells = ", ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in row)
        rows.append(f"    [{cells}]")
    return "\n".join(head + [",\n".join(rows), "  ]", "}"]) + "\n"


def _convert(matrix: list, n: int) -> np.ndarray | None:
    """The n x n complex128 matrix in one conversion, or None if any row or entry is malformed."""
    try:
        # n entries per row, two leaves per entry, every leaf a JSON number:
        # together these make every row a list of n [re, im] number pairs
        if (
            set(map(len, matrix)) != {n}
            or set(map(len, chain.from_iterable(matrix))) != {2}
            or not set(map(type, _leaves(matrix))) <= {int, float}
        ):
            return None
        flat = np.fromiter(_leaves(matrix), dtype=np.float64, count=2 * n * n)
    except (TypeError, OverflowError):
        return None
    return flat.view(np.complex128).reshape(n, n)


def _leaves(matrix: list):
    return chain.from_iterable(chain.from_iterable(matrix))


def _walk(matrix: list, d: int) -> np.ndarray:
    """Convert entry by entry, raising on the first bad row or entry in row-major order."""
    n = d * d
    out = np.empty((n, n), dtype=np.complex128)
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"matrix row {r} must have {n} entries (d^2 for d={d})")
        for c, cell in enumerate(row):
            out[r, c] = _parse_entry(cell, r, c)
    return out


def _parse_entry(cell, r: int, c: int) -> complex:
    if (
        not isinstance(cell, list)
        or len(cell) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
    ):
        raise ValueError(
            f"entry at row {r}, column {c} must be a [re, im] pair of numbers, got {cell!r}"
        )
    try:
        return complex(cell[0], cell[1])
    except OverflowError:
        raise ValueError(f"entry at row {r}, column {c} is out of float range") from None


def _fmt(x: float) -> str:
    return format(x, ".17g")
