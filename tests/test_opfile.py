"""Tests for the JSON operator file format."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import entpow.opfile
from entpow.opfile import _MAX_BYTES, read_operator_file, serialize_operator
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
        monkeypatch.setattr(entpow.opfile, "_parse_entry", fail_if_called)
        op = BipartiteOperator(16, haar_unitary(256, seed=5))
        back, _ = read_operator_file(serialize_operator(op))
        assert back.mat.tobytes() == op.mat.tobytes()

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
        with pytest.raises(ValueError, match="'d' must be at most 16, got 17"):
            read_operator_file(doc(17, zeros_matrix(289)))
        with pytest.raises(ValueError, match="'d' must be at most 16"):
            read_operator_file(json.dumps({"d": 10**300, "matrix": []}))

    def test_d_16_accepted(self):
        op = BipartiteOperator(16, haar_unitary(256, seed=3))
        assert read_operator_file(serialize_operator(op))[0].d == 16

    @pytest.mark.parametrize("kind", [bytes, str])
    def test_oversized_valid_document_rejected_before_parsing(self, monkeypatch, kind):
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
        content = serialize_operator(swap_op(2)).encode()
        op, _ = read_operator_file(content)
        assert np.array_equal(op.mat, swap_op(2).mat)


class TestErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(ValueError, match="line"):
            read_operator_file('{"d": 2, "matrix": [[[')

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
            with pytest.raises(ValueError, match="'d'"):
                read_operator_file(json.dumps({"d": d, "matrix": []}))

    def test_bad_name(self):
        with pytest.raises(ValueError, match="'name'"):
            read_operator_file(doc(2, zeros_matrix(4), name=7))

    def test_bad_cell_shapes(self):
        for bad in ([1.0], [1.0, 2.0, 3.0], "x", 5, [True, 0.0], None):
            rows = zeros_matrix(4)
            rows[1] = list(rows[1])
            rows[1][2] = bad
            with pytest.raises(ValueError, match="row 1, column 2"):
                read_operator_file(doc(2, rows))

    def test_non_finite_entry_located(self):
        rows = zeros_matrix(4)
        rows[3] = list(rows[3])
        rows[3][0] = [1.0, 1e999]  # serializes as Infinity in JSON
        text = doc(2, rows).replace("1e+999", "Infinity")
        with pytest.raises(ValueError, match="row 3, column 0"):
            read_operator_file(text)

    def test_nan_entry_rejected(self):
        rows = zeros_matrix(4)
        rows[0] = list(rows[0])
        rows[0][0] = [1.0, 1.0]
        text = doc(2, rows).replace("[1.0, 1.0]", "[NaN, 0.0]")
        with pytest.raises(ValueError, match="non-finite|row 0"):
            read_operator_file(text)
