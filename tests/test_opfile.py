"""Tests for the JSON operator file format."""

import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import entpow.opfile
from entpow.densemat import _MAX_D, _echo
from entpow.opfile import _BLOCK_CHARS, _MAX_BYTES, _walk, read_operator_file, serialize_operator
from entpow.operators import ControlledUSpec, controlled_u, haar_unitary, swap_op
from entpow.rearrange import BipartiteOperator


def doc(d, matrix, **extra):
    return json.dumps({"d": d, "matrix": matrix, **extra})


def zeros_matrix(n):
    return [[[0.0, 0.0]] * n for _ in range(n)]


def with_cell(rows, r, c, cell):
    rows[r] = list(rows[r])
    rows[r][c] = cell
    return rows


def pair_matrix(n):
    """An n x n matrix of number pairs as lists, entry (r, c) being [c, r]."""
    return [[[c, r] for c in range(n)] for r in range(n)]


def fail_if_called(*args, **kwargs):
    raise AssertionError("reached a step the reader must not take here")


class TestRoundTrip:
    @pytest.mark.parametrize("d", [2, 3])
    def test_haar_operator_survives_bitwise(self, d):
        op = BipartiteOperator(d, haar_unitary(d * d, seed=40 + d))
        back, name = read_operator_file(serialize_operator(op, name="sample"))
        assert name == "sample"
        assert back.d == d
        assert back.mat.tobytes() == op.mat.tobytes()

    def test_round_trip_without_name(self):
        op = swap_op(2)
        back, name = read_operator_file(serialize_operator(op))
        assert name is None
        assert np.array_equal(back.mat, op.mat)

    def test_serialized_form_is_stable(self):
        op = swap_op(2)
        assert serialize_operator(op, "swap") == serialize_operator(op, "swap")

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_serialized_form_is_per_value_format(self, d):
        n = d * d
        rng = np.random.default_rng(d)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        edges = [0.0, -0.0, 5e-324, -1.5e300, 1e16, 1e-7, 123456789.0, 1 / 3]
        m.real.flat[: len(edges)] = edges
        m.imag.flat[: len(edges)] = [-x for x in edges]
        op = BipartiteOperator(d, m)

        def fmt(x):
            return "-0.0" if x == 0 and np.signbit(x) else format(x, ".17g")

        rows = ",\n".join(
            "    [" + ", ".join(f"[{fmt(z.real)}, {fmt(z.imag)}]" for z in row) + "]"
            for row in op.mat
        )
        expected = f'{{\n  "d": {d},\n  "name": "x",\n  "matrix": [\n{rows}\n  ]\n}}\n'
        assert serialize_operator(op, "x") == expected

    def test_negative_zeros_survive(self):
        op = BipartiteOperator(2, -np.eye(4) * np.exp(1j * np.pi))
        assert ((op.mat.imag == 0) & np.signbit(op.mat.imag)).sum() == 12
        text = serialize_operator(op)
        assert "-0.0" in text
        back = read_operator_file(text)[0]
        assert back.mat.tobytes() == op.mat.tobytes()

    def test_integer_negative_zero_reads_as_positive_zero(self):
        rows = with_cell(zeros_matrix(4), 1, 2, [0.5, 0.5])
        text = doc(2, rows).replace("[0.5, 0.5]", "[-0, -0.0]")
        back = read_operator_file(text)[0]
        assert np.signbit([back.mat[1, 2].real, back.mat[1, 2].imag]).tolist() == [False, True]

    def test_awkward_floats_survive(self):
        # values with no short decimal representation
        vals = [1 / 3, np.pi, np.e, 2 ** -0.5]
        m = np.zeros((4, 4), dtype=complex)
        m[0, :] = [v + 1j * w for v, w in zip(vals, reversed(vals))]
        op = BipartiteOperator(2, m)
        back = read_operator_file(serialize_operator(op))[0]
        assert back.mat.tobytes() == op.mat.tobytes()


class TestBulkConversion:
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_matches_per_entry_reference_bitwise(self, d):
        n = d * d
        pairs = [[[z.real, z.imag] for z in row] for row in haar_unitary(n, seed=d)]
        # integers, including ones that round when converted to float64
        for k, value in enumerate([1, 2**53 + 1, 2**64 + 1, -(2**64 + 1)]):
            pairs[k % n][(3 * k) % n] = [value, -value]
        pairs[n - 1][0] = [0, 2**53 + 3]
        text = doc(d, pairs)
        reference = np.array(
            [[complex(re, im) for re, im in row] for row in json.loads(text)["matrix"]],
            dtype=np.complex128,
        )
        op, _ = read_operator_file(text)
        assert op.mat.tobytes() == reference.tobytes()

    def test_valid_file_never_walks_entries(self, monkeypatch):
        # a declined matrix would be scanned into lists and walked
        monkeypatch.setattr(entpow.opfile, "_walk", fail_if_called)
        op = BipartiteOperator(16, haar_unitary(256, seed=5))
        pairs = [[[z.real, z.imag] for z in row] for row in op.mat]
        for text in (serialize_operator(op), json.dumps({"d": 16, "matrix": pairs}, indent=1)):
            back, _ = read_operator_file(text)
            assert back.mat.tobytes() == op.mat.tobytes()

    def test_d16_read_peak_memory(self):
        # 14,659,721 bytes (13.98 MiB): the largest traced peak of three such
        # reads by a reader whose json.loads builds every row and entry as a list
        content = serialize_operator(BipartiteOperator(16, haar_unitary(256, seed=5))).encode()
        read_operator_file(content)
        tracemalloc.start()
        try:
            read_operator_file(content)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14_659_721

    @pytest.mark.parametrize("indent", [None, 4], ids=["serialized", "indent4"])
    def test_d16_read_peaks_near_the_text(self, indent):
        # 3 MiB over the text, which a bytes input is decoded into: a reader
        # that copies the whole matrix text or lists all of its 131,072
        # numbers peaks 8.7 MiB over a serialized d=16 file, and 13.0 over
        # the same matrix written with indent=4
        op = BipartiteOperator(16, haar_unitary(256, seed=5))
        pairs = [[[z.real, z.imag] for z in row] for row in op.mat]
        text = serialize_operator(op) if indent is None else json.dumps(
            {"d": 16, "matrix": pairs}, indent=indent)
        content = text.encode()
        read_operator_file(content)
        tracemalloc.start()
        try:
            back, _ = read_operator_file(content)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.mat.tobytes() == op.mat.tobytes()
        assert peak <= len(content) + (3 << 20)

    def test_first_bad_entry_wins_over_later_ragged_row(self):
        rows = with_cell(zeros_matrix(4), 0, 3, [1.0, "x"])
        rows[2] = rows[2][:3]
        with pytest.raises(ValueError, match="row 0, column 3"):
            read_operator_file(doc(2, rows))

    @pytest.mark.parametrize("leaf", [True, False, "2", None])
    @pytest.mark.parametrize("r, c, part", [(0, 0, 0), (1, 3, 1), (3, 2, 0)])
    def test_non_number_leaf_rejected_at_its_entry(self, leaf, r, c, part):
        cell = [0.5, 0.5]
        cell[part] = leaf
        rows = with_cell(zeros_matrix(4), r, c, cell)
        with pytest.raises(ValueError, match=f"row {r}, column {c} must be a"):
            read_operator_file(doc(2, rows))

    def test_integer_beyond_float_range_located(self):
        rows = with_cell(zeros_matrix(4), 2, 1, [10**400, 0])
        with pytest.raises(ValueError, match="row 2, column 1 is out of float range"):
            read_operator_file(doc(2, rows))


class TestLimits:
    def test_deep_nesting_is_malformed(self):
        with pytest.raises(ValueError, match="malformed operator file: nesting too deep"):
            read_operator_file("[" * 100_000)

    @pytest.mark.parametrize("depth", [50, 900])
    def test_deeply_nested_entry_located(self, depth):
        text = doc(2, zeros_matrix(4)).replace("[0.0, 0.0]", "[" * depth + "]" * depth, 1)
        with pytest.raises(ValueError, match="row 0, column 0|nesting too deep"):
            read_operator_file(text)

    def test_d_above_16_rejected(self):
        with pytest.raises(ValueError, match="must be an integer from 2 to 16, got 17$"):
            read_operator_file(doc(17, zeros_matrix(289)))
        with pytest.raises(ValueError, match="must be an integer from 2 to 16, got 1000"):
            read_operator_file(json.dumps({"d": 10**300, "matrix": []}))

    def test_d_16_accepted(self):
        op = BipartiteOperator(16, haar_unitary(256, seed=3))
        assert read_operator_file(serialize_operator(op))[0].d == 16

    @pytest.mark.parametrize("kind", [bytes, str])
    def test_oversized_valid_document_rejected_before_parsing(self, monkeypatch, kind):
        monkeypatch.setattr(entpow.opfile, "_OperatorDecoder", fail_if_called)
        monkeypatch.setattr(entpow.opfile.json, "loads", fail_if_called)
        text = serialize_operator(swap_op(2))
        content = text + " " * (_MAX_BYTES + 1 - len(text))
        with pytest.raises(ValueError, match="exceeds the 16 MiB limit"):
            read_operator_file(content.encode() if kind is bytes else content)

    def test_content_at_the_cap_is_parsed(self):
        text = serialize_operator(swap_op(2))
        op, _ = read_operator_file(text + " " * (_MAX_BYTES - len(text)))
        assert np.array_equal(op.mat, swap_op(2).mat)


# Generated documents are mostly well shaped, with a few odd rows and cells,
# so that they reach every branch of the reader. Numbers include integers
# beyond float range, NaN and infinities (written as the NaN/Infinity
# tokens); other leaves are those numpy's conversion would accept; values
# nest lists and objects. Oversized content is covered in TestLimits.
_NUMBERS = (
    st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([2**53 + 1, 2**64 + 1, 10**400, -(10**309)])
)
_LEAVES = _NUMBERS | st.booleans() | st.none() | st.text(max_size=3)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
_PAIRS = st.lists(_NUMBERS, min_size=2, max_size=2)
_LENGTHS = st.sampled_from([4, 4, 4, 0, 3, 5])


@st.composite
def _documents(draw):
    d = draw(st.sampled_from([2] * 6 + [0, 1, 17, True, "2", 2.0]))
    rows = [draw(st.lists(_PAIRS, min_size=4, max_size=4)) for _ in range(draw(_LENGTHS))]
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        r = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if draw(st.booleans()):
            rows[r] = draw(_VALUES | st.lists(_PAIRS, min_size=0, max_size=5))
        elif isinstance(rows[r], list) and rows[r]:
            c = draw(st.integers(min_value=0, max_value=len(rows[r]) - 1))
            rows[r][c] = draw(_VALUES | st.lists(_LEAVES, min_size=2, max_size=2))
    # the matrix nested within the parser's reach, or beyond it
    depth = draw(st.sampled_from([0] * 6 + [50, 900, 5000]))
    matrix = "[" * depth + json.dumps(rows) + "]" * depth
    return f'{{"d": {json.dumps(d)}, "matrix": {matrix}}}'


class TestOnlyValueError:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_documents())
    def test_generated_documents(self, text):
        try:
            op, _ = read_operator_file(text)
        except ValueError:
            return
        assert np.isfinite(op.mat).all()

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=64) | st.text(max_size=64))
    def test_arbitrary_content(self, content):
        with pytest.raises(ValueError):
            read_operator_file(content)


class TestParsing:
    def test_cnot_entries(self):
        rows = zeros_matrix(4)
        for r, c in [(0, 0), (1, 1), (2, 3), (3, 2)]:
            rows[r] = list(rows[r])
            rows[r][c] = [1.0, 0.0]
        op, _ = read_operator_file(doc(2, rows))
        cnot = controlled_u(ControlledUSpec(2, (np.eye(2), np.array([[0, 1], [1, 0]]))))
        assert np.array_equal(op.mat, cnot.mat)

    def test_integer_entries_accepted(self):
        rows = [[[1, 0] if r == c else [0, 0] for c in range(4)] for r in range(4)]
        op, _ = read_operator_file(doc(2, rows))
        assert np.array_equal(op.mat, np.eye(4, dtype=complex))

    def test_bytes_input(self):
        # UTF-8 bytes, with a name of multibyte characters
        content = serialize_operator(swap_op(2), "x").encode().replace(b'"x"', '"Ωψ é"'.encode())
        op, name = read_operator_file(content)
        assert np.array_equal(op.mat, swap_op(2).mat) and name == "Ωψ é"


class TestErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(ValueError, match="line"):
            read_operator_file('{"d": 2, "matrix": [[[')

    # a leading 0xff, a Latin-1 name in a matrix file and a sequence that the
    # end of the file cuts short: each names its first byte that is not UTF-8
    @pytest.mark.parametrize("content, offset", [
        (b"\xff" + serialize_operator(swap_op(2)).encode(), 0),
        (serialize_operator(swap_op(2), "cafe").encode().replace(b"cafe", b"caf\xe9"), 26),
        ('{"d": 2, "name": "\u00e9'.encode() + b"\xc3", 20),
    ], ids=["leading-0xff", "latin-1-name", "cut-sequence"])
    def test_bytes_that_are_not_utf8(self, content, offset):
        message = f"malformed operator file: not UTF-8 at byte {offset}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_operator_file(content)

    def test_non_object_document(self):
        with pytest.raises(ValueError, match="JSON object"):
            read_operator_file("[1, 2, 3]")

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="'matrix'"):
            read_operator_file('{"d": 2}')
        with pytest.raises(ValueError, match="'d'"):
            read_operator_file(json.dumps({"matrix": zeros_matrix(4)}))

    def test_wrong_matrix_size_states_expected(self):
        with pytest.raises(ValueError, match="4 rows"):
            read_operator_file(doc(2, zeros_matrix(3)))

    def test_ragged_row(self):
        rows = zeros_matrix(4)
        rows[2] = rows[2][:3]
        with pytest.raises(ValueError, match="row 2"):
            read_operator_file(doc(2, rows))

    def test_bad_d_values(self):
        for d in (1, "2", 2.0, True, None):
            with pytest.raises(ValueError, match="local dimension must be an integer"):
                read_operator_file(json.dumps({"d": d, "matrix": []}))

    def test_bad_name(self):
        for name in (7, True, ["a"], {"a": 1}):
            message = re.escape(f"'name' must be text, got {name!r}")
            with pytest.raises(ValueError, match=message):
                read_operator_file(doc(2, zeros_matrix(4), name=name))
            # the writer keeps the reader's rule: it raises rather than write
            # a label that would not read back
            with pytest.raises(ValueError, match=message):
                serialize_operator(swap_op(2), name=name)

    @pytest.mark.parametrize("key, rule", [
        ("d", "local dimension must be an integer from 2 to 16"),
        ("name", "'name' must be text"),
    ], ids=["d", "name"])
    def test_a_pair_matrix_of_side_4_is_echoed_as_the_flat_reader_s_array(self, key, rule):
        # every top-level array of side 4 or more takes the flat reader,
        # whatever its member: a 'd' or 'name' holding one reaches its rule
        # as an ndarray, not as json's lists
        text = _compact_with(**{key: pair_matrix(4)})
        message = f"{rule}, got array([[0.+0... (164 characters)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_operator_file(text)

    def test_bad_cell_shapes(self):
        for bad in ([1.0], [1.0, 2.0, 3.0], "x", 5, [True, 0.0], None):
            rows = zeros_matrix(4)
            rows[1] = list(rows[1])
            rows[1][2] = bad
            with pytest.raises(ValueError, match="row 1, column 2"):
                read_operator_file(doc(2, rows))

    @pytest.mark.parametrize("position", ["d", "name", "entry"])
    def test_integer_past_the_digit_limit(self, position):
        # Python's own message would advise calling sys.set_int_max_str_digits
        digits = "7" * 5000
        text = {
            "d": serialize_operator(swap_op(2)).replace('"d": 2', f'"d": {digits}'),
            "name": serialize_operator(swap_op(2), "swap").replace('"swap"', digits),
            "entry": serialize_operator(swap_op(2)).replace("[1, 0]", f"[{digits}, 0]", 1),
        }[position]
        limit = sys.get_int_max_str_digits()
        message = f"malformed operator file: an integer has more than {limit} digits"
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_operator_file(text)
        assert outcome(reference_read, text) == ("error", message)

    def test_writer_echoes_a_long_integer_name(self):
        message = "'name' must be text, got an int too long to show"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize_operator(swap_op(2), name=10**5000)
        message = "'name' must be text, got 100000000000... (401 characters)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize_operator(swap_op(2), name=10**400)

    def test_writer_names_a_container_holding_a_long_integer(self):
        # repr of the list would raise Python's advice on the digit limit
        message = "'name' must be text, got a list too long to show"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize_operator(swap_op(2), name=[10**5000])

    def test_a_long_integer_cell_is_echoed_short(self):
        text = doc(2, with_cell(zeros_matrix(4), 1, 2, 10**45))
        message = ("entry at row 1, column 2 must be a [re, im] pair of numbers, "
                   "got 100000000000... (46 characters)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_operator_file(text)
        assert outcome(reference_read, text) == ("error", message)

    def test_non_finite_entry_located(self):
        rows = zeros_matrix(4)
        rows[3] = list(rows[3])
        rows[3][0] = [1.0, 1e999]  # serializes as Infinity in JSON
        text = doc(2, rows).replace("1e+999", "Infinity")
        with pytest.raises(ValueError, match="^non-finite entry at row 3, column 0$"):
            read_operator_file(text)

    def test_nan_entry_rejected(self):
        rows = zeros_matrix(4)
        rows[0] = list(rows[0])
        rows[0][0] = [1.0, 1.0]
        text = doc(2, rows).replace("[1.0, 1.0]", "[NaN, 0.0]")
        with pytest.raises(ValueError, match="^non-finite entry at row 0, column 0$"):
            read_operator_file(text)


def reference_read(text):
    """A reader without the flat path: ``json.loads``, the same checks, the
    reader's walk to name a bad row or entry, then numpy's conversion of
    json's lists."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed operator file: {e}") from None
    except ValueError:
        raise ValueError(f"malformed operator file: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ValueError("malformed operator file: nesting too deep") from None
    if not isinstance(document, dict):
        raise ValueError("operator file must be a JSON object with keys 'd' and 'matrix'")
    for key in ("d", "matrix"):
        if key not in document:
            raise ValueError(f"operator file is missing required key '{key}'")
    d = document["d"]
    if not isinstance(d, int) or isinstance(d, bool) or not 2 <= d <= _MAX_D:
        raise ValueError(f"local dimension must be an integer from 2 to {_MAX_D}, got {_echo(d)}")
    name = document.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"'name' must be text, got {_echo(name)}")
    n = d * d
    matrix = document["matrix"]
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ValueError(
            f"matrix must have {n} rows ({n} = d^2 for d={d}), "
            f"got {len(matrix) if isinstance(matrix, list) else type(matrix).__name__}"
        )
    _walk(matrix, d)
    out = np.array(matrix, dtype=np.float64).view(np.complex128).reshape(n, n)
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"non-finite entry at row {r}, column {c}")
    return out, name


def outcome(read, text):
    """Matrix bytes and name of a read, or the text of its ValueError."""
    try:
        matrix, name = read(text)
    except ValueError as e:
        return "error", str(e)
    return matrix.tobytes(), name


def read_matrix_and_name(text):
    op, name = read_operator_file(text)
    return op.mat, name


def assert_reads_as_reference(text):
    assert outcome(read_matrix_and_name, text) == outcome(reference_read, text)


_PAIRS_2 = [[[z.real, z.imag] for z in row] for row in haar_unitary(4, seed=12)]
_PAIRS_2[1][2] = [1, -3]
_CANONICAL = serialize_operator(BipartiteOperator(2, haar_unitary(4, seed=11)), name="canon")


def _compact_with(**members):
    """Compact JSON text of a d=2 document with a non-ASCII name, its members
    replaced or extended by ``members``."""
    return json.dumps({"d": 2, "name": "Ωψ é", "matrix": _PAIRS_2, **members}, ensure_ascii=False)


_COMPACT = _compact_with()

# Valid documents around a d=2 matrix: pretty, compact with a non-ASCII
# name, without whitespace, whitespace after every bracket with "matrix"
# before "d", "matrix" before a name holding ']', CRLF line ends, an escaped
# key, duplicate "matrix" keys (the last one counts), nested objects that
# hold arrays, and an unknown member that holds a 4 x 4 matrix of pairs.
_VALID = [
    _CANONICAL,
    _COMPACT,
    json.dumps({"d": 2, "matrix": _PAIRS_2}, separators=(",", ":")),
    json.dumps({"matrix": _PAIRS_2, "d": 2}, indent=1),
    json.dumps({"d": 2, "matrix": _PAIRS_2, "name": "a]b}"}),
    _CANONICAL.replace("\n", "\r\n"),
    _CANONICAL.replace('"matrix"', '"matri\\u0078"'),
    _CANONICAL.replace('"matrix": [', '"matrix": [[[1, 2]]], "matrix": ['),
    _COMPACT.replace('"matrix": ', '"matrix": [[[true, 1]]], "x": {"matrix": [[[1, 2]]]}, "matrix": '),
    _COMPACT.replace('"name": ', '"extra": {"rows": [[[1, 2]], [3]], "m": {"matrix": [1]}}, "name": '),
    _compact_with(x=pair_matrix(4)),
]
# A square matrix of pairs as 'name' or 'd': below side 4 the flat reader
# declines it, so the message quotes it as lists.
_BASES = _VALID + [
    _COMPACT.replace('"name": "Ωψ é"', '"name": [[[1, 2]]]'),
    _COMPACT.replace('"d": 2', '"d": [[[2, 0]]]'),
]


def _cell(text, k, new):
    """``text`` with its k-th "[re, im]" pair written as ``new``."""
    starts = [i for i in range(len(text)) if text.startswith("[", i) and text[i + 1] in "-0123456789"]
    i = starts[k]
    return text[:i] + new + text[text.index("]", i) + 1:]


def _second_moved_out(text, k):
    """``text`` with the second number of its k-th pair moved past the pair's
    end: '[re, im]' becomes '[re, ]im', and every comma stays where it was."""
    i = [m.start() for m in re.finditer(r"\[[-0-9]", text)][k]
    end = text.index("]", i)
    re_part, im = text[i:end].split(", ")
    return f"{text[:i]}{re_part}, ]{im}{text[end + 1:]}"


# One case per kind of malformed or unusual content the flat reader must
# decline, or accept with the reference's values.
_SEEDED = [
    _cell(_CANONICAL, 0, "[-0, 0.5]"),
    _cell(_CANONICAL, 5, f"[{2**1100}, 0]"),
    _cell(_CANONICAL, 5, "[1e400, 0]"),
    _cell(_CANONICAL, 3, "[+1, 0]"),
    _cell(_CANONICAL, 3, "[.5, 0]"),
    _cell(_CANONICAL, 3, "[01, 0]"),
    _cell(_CANONICAL, 3, "[1., 0]"),
    _cell(_CANONICAL, 3, "[1 2, 0]"),
    _cell(_CANONICAL, 3, "[0, 1 .5]"),
    _cell(_CANONICAL, 7, "[1, ]2"),
    # each pair in turn as '[re, ]im', every comma where it was: the small
    # block sizes each end a block at some pair's own comma, and then ']'
    # opens the next block
    *(_second_moved_out(_CANONICAL, k) for k in range(16)),
    _cell(_CANONICAL, 7, "3[, 2]"),
    _cell(_CANONICAL, 7, "[1, 2], [3, 4]"),
    _cell(_CANONICAL, 7, "[1, 2]3"),
    _cell(_CANONICAL, 2, "[true, 0]"),
    _cell(_CANONICAL, 2, '[0, "2"]'),
    _cell(_CANONICAL, 2, "[null, 0]"),
    _cell(_CANONICAL, 2, "[[1, 2], 0]"),
    _cell(_CANONICAL, 2, "[1, 2, 3]"),
    _cell(_CANONICAL, 2, "[NaN, 0]"),
    _cell(_CANONICAL, 2, "[0, -Infinity]"),
    _cell(_CANONICAL, 2, "[0, é]"),
    _cell(_CANONICAL, 15, "[1, 2]]"),
    _cell(_CANONICAL, 15, "[1, 2]}"),
    _CANONICAL.replace("]],", "]],,", 1),
    _CANONICAL.replace("]]\n", "]], []\n", 1),
    _CANONICAL.replace("    [[", "    [[0, 0], [", 1),
    _CANONICAL.replace("  ]\n}", "  ]\n", 1),
    "\ufeff" + _CANONICAL,
    _CANONICAL + " 1",
    _CANONICAL.replace('"matrix"', '"matrix" '),
    # square matrices of pairs below side 4, which the flat reader declines,
    # as d, name and matrix, and an unknown member that it reads and the
    # reader drops
    *(_compact_with(**{key: pair_matrix(n)}) for key in ("d", "name", "matrix") for n in (2, 3)),
    _compact_with(x=pair_matrix(16)),
] + _BASES

_TOKENS = [
    "-0", str(2**1100), "1e400", "+1", ".5", "01", "1.", "[1 2]", "true", '"2"', "null",
    " ", "\r\n", "\t", ",", "[", "]", "[]", "{", "}", '"', ":", "é", "-", "e", "0", "NaN",
    "Infinity", "-Infinity",
    "[0, 0]", ", [0, 0]", "\\u0078",
]


@st.composite
def _mutated_documents(draw):
    text = draw(st.sampled_from(_BASES))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace", "swap"]))
        if kind == "insert":
            text = text[:i] + draw(st.sampled_from(_TOKENS)) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + draw(st.integers(min_value=1, max_value=3)):]
        elif kind == "replace":
            text = text[:i] + draw(st.sampled_from(_TOKENS)) + text[i + 1:]
        else:  # two neighbouring characters change places, e.g. a number and a bracket
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text


@pytest.fixture(params=[_BLOCK_CHARS, 1, 7, 64], ids=lambda n: f"block{n}")
def block_chars(request, monkeypatch):
    """The reader's block size, and sizes that cut a d=2 matrix's text into
    many blocks: one number, a few numbers and a few pairs at a time."""
    monkeypatch.setattr(entpow.opfile, "_BLOCK_CHARS", request.param)


@pytest.mark.usefixtures("block_chars")
class TestMatchesReference:
    @pytest.mark.parametrize("text", _SEEDED, ids=range(len(_SEEDED)))
    def test_seeded_document(self, text):
        assert_reads_as_reference(text)

    @pytest.mark.parametrize("text", _VALID, ids=range(len(_VALID)))
    def test_valid_document_takes_the_flat_reader(self, monkeypatch, text):
        expected = reference_read(text)[0]
        monkeypatch.setattr(entpow.opfile, "_walk", fail_if_called)
        assert read_operator_file(text)[0].mat.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("k", [0, 6, 15], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_token_takes_the_flat_reader(self, monkeypatch, token, k, part):
        text = _cell(_CANONICAL, k, f"[{token}, 0.5]" if part == "re" else f"[0.5, {token}]")
        message = f"non-finite entry at row {k // 4}, column {k % 4}"
        assert outcome(reference_read, text) == ("error", message)
        monkeypatch.setattr(entpow.opfile, "_walk", fail_if_called)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_operator_file(text)

    # the block size, set once per test, holds for every example
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_mutated_documents())
    def test_mutated_document(self, text):
        assert_reads_as_reference(text)

    @pytest.mark.parametrize("text", [_CANONICAL, _COMPACT], ids=["canonical", "compact"])
    def test_every_truncation(self, text):
        for k in range(len(text)):
            assert_reads_as_reference(text[:k])
            assert_reads_as_reference(text[:k] + "}")
