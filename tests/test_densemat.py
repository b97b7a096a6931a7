"""Tests for the dense matrix kernel."""

import math

import numpy as np
import pytest

from entpow.densemat import (
    adjoint,
    as_complex_matrix,
    frobenius_norm,
    frobenius_norm_sq,
    is_unitary,
    matmul,
    trace,
    unitarity_defect,
)
from entpow.operators import haar_unitary, max_entangled_projector, swap_op


def matmul_triple_loop(a, b):
    """Independent oracle: textbook triple loop, no vectorization."""
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            acc = 0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2, dtype=np.complex128)
        assert np.array_equal(matmul(eye, eye), eye)

    def test_swap_squares_to_identity(self):
        s = swap_op(2).mat
        assert np.array_equal(matmul(s, s), np.eye(4, dtype=np.complex128))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 3, 3)
            np.testing.assert_allclose(matmul(a, b), matmul_triple_loop(a, b), atol=1e-13)

    def test_dimension_mismatch_raises(self):
        a = np.zeros((2, 3), dtype=complex)
        b = np.zeros((2, 3), dtype=complex)
        with pytest.raises(ValueError, match="dimension mismatch"):
            matmul(a, b)

    def test_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_complex(rng, 3, 4)
            b = random_complex(rng, 4, 5)
            c = random_complex(rng, 5, 2)
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.abs(left - right).max() <= 1e-12


class TestAdjoint:
    def test_identity(self):
        eye = np.eye(4, dtype=np.complex128)
        assert np.array_equal(adjoint(eye), eye)

    def test_two_by_two_by_hand(self):
        a = np.array([[0, 1j], [0, 0]])
        expected = np.array([[0, 0], [-1j, 0]])
        assert np.array_equal(adjoint(a), expected)

    def test_swap_is_self_adjoint(self):
        s = swap_op(3).mat
        assert np.array_equal(adjoint(s), s)

    def test_involution_is_bitwise(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, 5, 3)
        assert adjoint(adjoint(a)).tobytes() == a.tobytes()


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(9, dtype=complex)) == 9

    def test_swap(self):
        # d diagonal ones, at the |ii><ii| positions
        assert trace(swap_op(2).mat) == 2

    def test_scaled_projector(self):
        # P+ is a rank-1 projector, so d * P+ has trace d
        assert trace(3 * max_entangled_projector(3).mat) == pytest.approx(3, abs=1e-14)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            trace(np.zeros((2, 3), dtype=complex))


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_norm_is_d(self, d):
        u = haar_unitary(d * d, seed=100 + d)
        assert frobenius_norm(u) == pytest.approx(d, abs=1e-12)

    def test_rank_one_projector(self):
        assert frobenius_norm(max_entangled_projector(3).mat) == pytest.approx(1, abs=1e-12)

    def test_squared_norm_equals_trace_form(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = random_complex(rng, 4, 4)
            via_trace = trace(matmul(adjoint(a), a)).real
            assert abs(frobenius_norm(a) ** 2 - via_trace) <= 1e-12

    def test_norm_sq_is_order_independent(self):
        rng = np.random.default_rng(15)
        a = random_complex(rng, 6, 6)
        shuffled = a.ravel().copy()
        rng.shuffle(shuffled)
        assert frobenius_norm_sq(a) == frobenius_norm_sq(shuffled.reshape(6, 6))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4, dtype=complex), 1e-12)
        assert is_unitary(np.eye(4, dtype=complex), 0.0)

    def test_swap(self):
        assert is_unitary(swap_op(4).mat, 1e-12)

    def test_scaled_projector_is_not(self):
        d = 2
        assert not is_unitary(d * max_entangled_projector(d).mat, 1e-12)
        assert unitarity_defect(d * max_entangled_projector(d).mat) > 0.9

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            is_unitary(np.eye(2, dtype=complex), -1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_raises(self, tol):
        # a NaN tolerance used to answer False and an infinite one True
        with pytest.raises(ValueError, match="finite"):
            is_unitary(np.ones((2, 2), dtype=complex), tol)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            unitarity_defect(np.zeros((2, 3), dtype=complex))


class TestValidation:
    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            as_complex_matrix(bad)
        bad = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            as_complex_matrix(bad)

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
