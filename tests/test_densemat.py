"""Tests for the dense matrix kernel."""

import numpy as np
import pytest

from entpow.densemat import (
    as_complex_matrix,
    frobenius_norm_sq,
    unitarity_defect,
)
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

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            as_complex_matrix(np.zeros(4, dtype=complex))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive"):
            as_complex_matrix(np.zeros((0, 3), dtype=complex))

    def test_accepts_real_input(self):
        m = as_complex_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m[1, 0] == 3
