"""Tests for the dense matrix kernel."""

import numpy as np
import pytest

from entpow.densemat import (
    as_complex_matrix,
    frobenius_norm_sq,
    unitarity_defect,
)
from entpow.entanglement import state_linear_entropy
from entpow.operators import ControlledUSpec, haar_unitary, max_entangled_projector, swap_op
from entpow.rearrange import BipartiteOperator


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm_sq(np.zeros((3, 3), dtype=complex)) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_norm_is_d(self, d):
        u = haar_unitary(d * d, seed=100 + d)
        assert frobenius_norm_sq(u) == pytest.approx(d * d, abs=1e-12)

    def test_rank_one_projector(self):
        assert frobenius_norm_sq(max_entangled_projector(3).mat) == pytest.approx(1, abs=1e-12)

    def test_squared_norm_equals_trace_form(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = random_complex(rng, 4, 4)
            via_trace = np.trace(a.conj().T @ a).real
            assert abs(frobenius_norm_sq(a) - via_trace) <= 1e-12

    def test_norm_sq_is_order_independent(self):
        rng = np.random.default_rng(15)
        a = random_complex(rng, 6, 6)
        shuffled = a.ravel().copy()
        rng.shuffle(shuffled)
        assert frobenius_norm_sq(a) == frobenius_norm_sq(shuffled.reshape(6, 6))


class TestUnitarityDefect:
    def test_identity(self):
        assert unitarity_defect(np.eye(4, dtype=complex)) == 0.0

    def test_swap(self):
        assert unitarity_defect(swap_op(4).mat) == 0.0

    def test_scaled_projector_is_not(self):
        d = 2
        assert unitarity_defect(d * max_entangled_projector(d).mat) > 0.9

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            unitarity_defect(np.zeros((2, 3), dtype=complex))

    def test_overflowing_products_give_an_infinite_defect_without_warning(self):
        assert unitarity_defect(1e200 * np.eye(4)) == np.inf


class TestValidation:
    @pytest.mark.parametrize("check, shape", [
        (as_complex_matrix, (2, 3)),
        (lambda m: BipartiteOperator(2, m), (4, 4)),
        (lambda m: ControlledUSpec(2, (np.eye(2), m)), (2, 2)),
    ], ids=["as_complex_matrix", "BipartiteOperator", "ControlledUSpec"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite(self, check, shape, value):
        # the first non-finite entry in row-major order is named
        bad = np.zeros(shape, dtype=complex)
        bad[1, 0] = value
        bad[-1, -1] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite entry at row 1, column 0$"):
            check(bad)

    @pytest.mark.parametrize("check", [
        lambda: as_complex_matrix([[object()]]),
        lambda: BipartiteOperator(2, {}),
        lambda: ControlledUSpec(2, (np.eye(2), [[{}, 0], [0, 1]])),
    ], ids=["as_complex_matrix", "BipartiteOperator", "ControlledUSpec"])
    def test_rejects_non_numeric(self, check):
        # numpy's own TypeError becomes the package's ValueError
        with pytest.raises(ValueError, match=r"^matrix entries must be numbers: "):
            check()

    @pytest.mark.parametrize("entries", [
        [["1", "2j"]],
        np.array([["1", "2"]]),
        [[b"1", b"0"]],
        np.array([[b"1"]]),
        np.array([[1, "2"]], dtype=object),
        [[np.str_("1")]],
        "1",
    ], ids=["str list", "str array", "bytes list", "bytes array", "object array", "np.str_",
            "bare str"])
    def test_rejects_strings_and_bytes(self, entries):
        with pytest.raises(ValueError, match=r"^matrix entries must be numbers: "):
            as_complex_matrix(entries)

    @pytest.mark.parametrize("check", [
        lambda: BipartiteOperator(2, [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                      ["0", "0", "1", "0"], ["0", "0", "0", "1"]]),
        lambda: ControlledUSpec(2, (np.eye(2), np.array([["0", "1"], ["1", "0"]]))),
    ], ids=["BipartiteOperator", "ControlledUSpec"])
    def test_operators_reject_strings(self, check):
        with pytest.raises(ValueError, match=r"^matrix entries must be numbers: "):
            check()

    @pytest.mark.parametrize("check", [
        lambda: as_complex_matrix([[10**400]]),
        lambda: BipartiteOperator(2, [[10**400, 0, 0, 0]] + np.eye(4)[1:].tolist()),
        lambda: ControlledUSpec(2, (np.eye(2), [[-(10**309), 0], [0, 1]])),
        lambda: state_linear_entropy([[10**400, 0], [0, 0]]),
    ], ids=["as_complex_matrix", "BipartiteOperator", "ControlledUSpec", "state_linear_entropy"])
    def test_rejects_integers_beyond_float_range(self, check):
        # numpy's OverflowError becomes the package's ValueError
        with pytest.raises(ValueError, match=r"^matrix entry is out of float range$"):
            check()

    def test_numeric_arrays_are_not_scanned(self, monkeypatch):
        # the eval path: a numeric ndarray goes straight to the conversion
        eye = np.eye(3, dtype=np.int8)
        monkeypatch.setattr(np, "asarray", None)
        m = as_complex_matrix(eye)
        assert m.dtype == np.complex128 and m[2, 2] == 1

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            as_complex_matrix(np.zeros(4, dtype=complex))
        # a scalar is reported as the 0-D data it is
        with pytest.raises(ValueError, match="got 0-D data"):
            as_complex_matrix(5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive"):
            as_complex_matrix(np.zeros((0, 3), dtype=complex))

    def test_accepts_real_input(self):
        m = as_complex_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m[1, 0] == 3
