"""Operator file format.

A single JSON document with keys:

    d       local dimension (integer from 2 to 16)
    name    optional text label
    matrix  d^2 x d^2 nested array of [re, im] pairs, row-major

Numbers are written with 17 significant digits, and negative zero as
``-0.0``, so a serialize/parse round trip reproduces every float64 entry
exactly; ``-0`` in a file is a JSON integer and reads as +0.0.

Reading parses the top-level object with the ``json`` module but hands each
member whose value is an array to a flat reader, which builds no list per
row or entry; the array's shape alone, not the member's key, decides.
The reader takes the array's text (a numeric matrix holds no ``"`` and no
``}``, so it ends at the last ``]`` before either) and walks it in blocks of
64 Ki characters, each extended to the next comma, so no number is cut.
Each block, with JSON whitespace deleted, must leave no pair's slot empty,
and gives its part of the skeleton, the text with number characters deleted
too; each block's numbers convert with one ``json.loads`` of its text with
every bracket replaced by a space, so JSON's number grammar holds and a
number split by whitespace is an error, and one ``np.fromiter`` to float64.
Integers convert as Python ints do, and the ``NaN`` and ``Infinity`` tokens
``json`` reads (RFC 8259 excludes them) as the floats they name.  The array
is accepted only when the joined skeleton is exactly the bracket-and-comma
skeleton of n rows of n pairs, with n at least 4, the side of the smallest
operator (d = 2); the blocks' arrays then join into an n x n complex128
matrix.  So beside the document's text a read holds one block's copies and
list of numbers, the skeleton, 2 bytes a number, and while the arrays join
the matrix twice, 16 bytes a number: a d = 16 read peaks about 2.5 MiB above
its text, however much whitespace the text holds.  The flat reader thus
reads every well-formed matrix of side 4 or more, finite or not.  Every
array it declines (a malformed one, a smaller one, one with an integer beyond
float range, or any other array) is scanned by ``json`` into lists, so a
``d`` or ``name`` holding a matrix of side 1 to 3 is echoed as its lists;
a declined ``matrix`` is walked row by row and entry by entry only to name
its first bad row or entry in row-major order.  Documents longer than 16 MiB
(bytes, or characters for text input) are rejected before they are parsed,
and an integer too long for Python to convert from text is malformed.  ``d``
and finiteness are checked by the ``densemat`` rules, with the messages of
every other entry point; every rejection is a ``ValueError``.
"""

from __future__ import annotations

import json
import math
import sys
from json.decoder import JSONObject

import numpy as np

from .densemat import _check_local_dim, _echo
from .rearrange import BipartiteOperator

__all__ = ["read_operator_file", "serialize_operator"]

# A d=16 Haar operator written with json.dumps(..., indent=4) is 6.8 MiB.
_MAX_BYTES = 16 * 1024 * 1024
# The flat reader converts a matrix in blocks of this many characters, each
# extended to its next comma: of 16, 64 and 256 Ki, 64 Ki read fastest.
_BLOCK_CHARS = 64 * 1024

_WHITESPACE = b" \t\n\r"
_NUMBER_CHARS = b"0123456789+-.eEINafinty"  # with the letters of NaN, Infinity
_BRACKETS_TO_SPACES = str.maketrans("[]", "  ")


def read_operator_file(content: bytes | str) -> tuple[BipartiteOperator, str | None]:
    """Parse an operator document, returning the operator and its label.

    Raises
    ------
    ValueError
        On content over 16 MiB, bytes that are not UTF-8 (message carries
        the byte offset), malformed JSON (message carries line/column), d
        outside 2..16, a name that is not text, inconsistent dimensions
        (message states the d^2 expected), or non-finite or non-numeric entries.
    """
    if len(content) > _MAX_BYTES:
        raise ValueError(f"operator file exceeds the {_MAX_BYTES >> 20} MiB limit")
    try:
        if isinstance(content, bytes):
            content = content.decode("utf-8")
        doc = json.loads(content, cls=_OperatorDecoder)
    except UnicodeDecodeError as e:
        raise ValueError(f"malformed operator file: not UTF-8 at byte {e.start}") from None
    except json.JSONDecodeError as e:
        # str(e) already carries "line L column C"
        raise ValueError(f"malformed operator file: {e}") from None
    except ValueError:
        # json's one other error: an integer too long to convert from text,
        # whose own message advises a Python call
        message = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        raise ValueError(f"malformed operator file: {message}") from None
    except RecursionError:
        raise ValueError("malformed operator file: nesting too deep") from None

    if not isinstance(doc, dict):
        raise ValueError("operator file must be a JSON object with keys 'd' and 'matrix'")
    for key in ("d", "matrix"):
        if key not in doc:
            raise ValueError(f"operator file is missing required key '{key}'")

    d = _check_local_dim(doc["d"])
    name = _check_name(doc.get("name"))

    n = d * d
    matrix = doc["matrix"]
    # the flat reader's matrix is square, so n rows make it n x n
    rows = len(matrix) if isinstance(matrix, (list, np.ndarray)) else type(matrix).__name__
    if rows != n:
        raise ValueError(f"matrix must have {n} rows ({n} = d^2 for d={d}), got {rows}")
    if isinstance(matrix, list):
        _walk(matrix, d)
    # BipartiteOperator names the first non-finite entry
    return BipartiteOperator(d, matrix), name


def serialize_operator(op: BipartiteOperator, name: str | None = None) -> str:
    """Render an operator as the documented JSON text, one matrix row per line.

    One %-format call renders every number; ``%.17g`` gives the digits of
    ``format(x, ".17g")``, which writes negative zero as ``-0``, a JSON
    integer, so that token is rewritten as ``-0.0``.  A ``name`` that is not
    text raises the reader's ValueError before anything is rendered.
    """
    _check_name(name)
    head = ["{", f'  "d": {op.d},']
    if name is not None:
        head.append(f'  "name": {json.dumps(name)},')
    head.append('  "matrix": [')
    n = len(op.mat)
    row = "    [" + ", ".join(["[%.17g, %.17g]"] * n) + "]"
    rows = ",\n".join([row] * n) % tuple(op.mat.view(np.float64).ravel().tolist())
    # '-0' is a whole number token only when a ',' or ']' follows it
    rows = rows.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
    return "\n".join(head + [rows, "  ]", "}"]) + "\n"


def _check_name(name):
    """``name`` itself, if None or text: the one label rule of reader and writer."""
    if name is not None and not isinstance(name, str):
        raise ValueError(f"'name' must be text, got {_echo(name)}")
    return name


class _OperatorDecoder(json.JSONDecoder):
    """``json.JSONDecoder`` that hands each member of a top-level object whose
    value is an array to the flat reader; every other value, and every array
    the reader declines, goes to ``json``'s own scanner."""

    def __init__(self):
        super().__init__()
        self._scan_value = self.scan_once
        self.scan_once = self._scan_document

    def _scan_document(self, s: str, idx: int):
        if not s.startswith("{", idx):
            return self._scan_value(s, idx)
        return JSONObject((s, idx + 1), self.strict, self._scan_member, None, None)

    def _scan_member(self, s: str, idx: int):
        if s.startswith("[", idx):
            found = _read_matrix(s, idx)
            if found is not None:
                return found
        return self._scan_value(s, idx)


def _read_matrix(s: str, idx: int) -> tuple[np.ndarray, int] | None:
    """The square matrix of number pairs, of side 4 or more, whose array
    starts at ``s[idx]`` and the index just past it, or None if the text is
    anything else."""
    end = len(s)
    for stop_char in '"}':
        found = s.find(stop_char, idx, end)
        if found >= 0:
            end = found
    stop = s.rfind("]", idx, end) + 1
    parts, arrays = [], []
    start = idx
    try:
        while start < stop:
            # a block ends at a comma, which no number holds, or at the array's end
            cut = s.find(",", start + _BLOCK_CHARS, stop) + 1 or stop
            block = s[start:cut]
            dense = block.encode("ascii").translate(None, _WHITESPACE)
            if _empty_slot(dense):
                return None
            parts.append(dense.translate(None, _NUMBER_CHARS))
            values = json.loads(f"[{block.translate(_BRACKETS_TO_SPACES).removesuffix(',')}]")
            arrays.append(np.fromiter(values, dtype=np.float64, count=len(values)))
            start = cut
        skeleton = b"".join(parts)
        m = math.isqrt(len(skeleton) // 4)  # the skeleton has 4m^2 + 2m + 1 characters
        row = b"[" + b",".join([b"[,]"] * m) + b"]"
        # 4 x 4 is the smallest operator's (d = 2); a smaller array stays json's lists
        if m < 4 or skeleton != b"[" + b",".join([row] * m) + b"]":
            return None
        matrix = np.concatenate(arrays).view(np.complex128).reshape(m, m)
    except (ValueError, OverflowError):
        # a non-ASCII character, a malformed or split number, or an integer
        # beyond float range: json's scanner and _walk report it
        return None
    return matrix, stop


def _empty_slot(dense: bytes) -> bool:
    """Whether ``dense``, a block's text without whitespace, leaves a pair's
    slot empty: '[,' or ',]', whose ']' opens the block when the block
    before ended at its ','.

    A number moved out of its pair, as in '[1, ]2', keeps the skeleton and
    the count of numbers, so only this check sees it.
    """
    if dense.startswith(b"]"):
        return True
    chars = np.frombuffer(dense, dtype=np.uint8)
    found = chars[:-1] == ord("[")
    found &= chars[1:] == ord(",")
    if found.any():
        return True
    np.equal(chars[:-1], ord(","), out=found)
    found &= chars[1:] == ord("]")
    return bool(found.any())


def _walk(matrix: list, d: int) -> None:
    """Raise on the first bad row or entry, in row-major order, of a matrix
    the flat reader declined; json's lists are built only for such a matrix."""
    n = d * d
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"matrix row {r} must have {n} entries (d^2 for d={d})")
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise ValueError(
                    f"entry at row {r}, column {c} must be a [re, im] pair of numbers, "
                    f"got {_echo(cell)}"
                )
            try:
                complex(cell[0], cell[1])
            except OverflowError:
                raise ValueError(f"entry at row {r}, column {c} is out of float range") from None
