"""Tests for index rearrangements.

The rearrangements are pure entry moves, so most checks here demand bitwise
equality (tobytes), not just closeness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entpow.densemat import frobenius_norm_sq
from entpow.operators import haar_unitary, swap_op
from entpow.rearrange import (
    BipartiteOperator,
    partial_transpose_first,
    partial_transpose_second,
    realign,
    swap_left,
    swap_right,
)


def random_op(d, seed):
    rng = np.random.default_rng(seed)
    n = d * d
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return BipartiteOperator(d, z)


def scaled_max_entangled_projector(d):
    """d times the projector onto sum_i |i>|i> / sqrt(d), from its index
    definition: entry [(i,j),(k,l)] is 1 when i == j and k == l, else 0."""
    v = np.eye(d).ravel()
    return np.outer(v, v)


def haar_op(d, seed):
    return BipartiteOperator(d, haar_unitary(d * d, seed))


class TestBipartiteOperator:
    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="4x4"):
            BipartiteOperator(2, np.eye(3, dtype=complex))

    def test_small_d_raises(self):
        with pytest.raises(ValueError, match="d"):
            BipartiteOperator(1, np.eye(1, dtype=complex))

    def test_matrix_is_read_only(self):
        op = BipartiteOperator(2, np.eye(4))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_stores_a_copy(self):
        m = np.eye(4, dtype=complex)
        op = BipartiteOperator(2, m)
        m[0, 0] = 7.0
        assert op.mat[0, 0] == 1.0

    def test_entry_layout(self):
        # mat[i*d + j, k*d + l] is the <ij|U|kl> amplitude, |ij> = |i> (x) |j>
        d = 3
        rng = np.random.default_rng(21)
        u = random_op(d, 22)
        basis = np.eye(d)
        for _ in range(10):
            i, j, k, l = rng.integers(0, d, size=4)
            bra = np.kron(basis[i], basis[j])
            ket = np.kron(basis[k], basis[l])
            assert u.mat[i * d + j, k * d + l] == bra @ u.mat @ ket


class TestRealign:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_is_fixed_point(self, d):
        s = swap_op(d)
        assert np.array_equal(realign(s).mat, s.mat)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_identity_realigns_to_projector(self, d):
        expected = scaled_max_entangled_projector(d)
        assert np.array_equal(realign(BipartiteOperator(d, np.eye(d * d))).mat, expected)

    def test_entry_rule(self):
        # (U^R)_{ij,kl} = U_{ik,jl}
        d = 2
        u = random_op(d, 23)
        r = realign(u)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        assert r.mat[i * d + j, k * d + l] == u.mat[i * d + k, j * d + l]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_involution_bitwise(self, d):
        u = random_op(d, 24 + d)
        assert realign(realign(u)).mat.tobytes() == u.mat.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_norm_preserved_exactly(self, d):
        u = random_op(d, 27 + d)
        assert frobenius_norm_sq(realign(u).mat) == frobenius_norm_sq(u.mat)


class TestPartialTransposes:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_is_fixed_point(self, d):
        eye = BipartiteOperator(d, np.eye(d * d))
        assert np.array_equal(partial_transpose_first(eye).mat, eye.mat)
        assert np.array_equal(partial_transpose_second(eye).mat, eye.mat)

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_maps_to_projector(self, d):
        s = swap_op(d)
        expected = scaled_max_entangled_projector(d)
        assert np.array_equal(partial_transpose_first(s).mat, expected)
        assert np.array_equal(partial_transpose_second(s).mat, expected)

    def test_entry_rules(self):
        d = 2
        u = random_op(d, 31)
        t1 = partial_transpose_first(u)
        t2 = partial_transpose_second(u)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        # (U^T1)_{ij,kl} = U_{kj,il};  (U^T2)_{ij,kl} = U_{il,kj}
                        assert t1.mat[i * d + j, k * d + l] == u.mat[k * d + j, i * d + l]
                        assert t2.mat[i * d + j, k * d + l] == u.mat[i * d + l, k * d + j]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_involutions_bitwise(self, d):
        u = random_op(d, 35 + d)
        assert partial_transpose_first(partial_transpose_first(u)).mat.tobytes() == u.mat.tobytes()
        assert partial_transpose_second(partial_transpose_second(u)).mat.tobytes() == u.mat.tobytes()

    def test_composing_both_gives_full_transpose(self):
        u = random_op(3, 39)
        transpose = u.mat.T.copy().tobytes()
        assert partial_transpose_first(partial_transpose_second(u)).mat.tobytes() == transpose
        assert partial_transpose_second(partial_transpose_first(u)).mat.tobytes() == transpose

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_norm_preserved_exactly(self, d):
        u = random_op(d, 41 + d)
        assert frobenius_norm_sq(partial_transpose_first(u).mat) == frobenius_norm_sq(u.mat)
        assert frobenius_norm_sq(partial_transpose_second(u).mat) == frobenius_norm_sq(u.mat)


class TestSwapConjugations:
    def test_swap_left_of_swap_is_identity(self):
        d = 3
        assert np.array_equal(swap_left(swap_op(d)).mat, BipartiteOperator(d, np.eye(d * d)).mat)

    def test_swap_left_of_identity_is_swap(self):
        d = 3
        assert np.array_equal(swap_left(BipartiteOperator(d, np.eye(d * d))).mat, swap_op(d).mat)

    def test_swap_right_of_swap_is_identity(self):
        d = 3
        assert np.array_equal(swap_right(swap_op(d)).mat, BipartiteOperator(d, np.eye(d * d)).mat)

    def test_swap_right_of_identity_is_swap(self):
        d = 3
        assert np.array_equal(swap_right(BipartiteOperator(d, np.eye(d * d))).mat, swap_op(d).mat)

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_left_matches_matrix_product(self, d):
        u = random_op(d, 45 + d)
        product = swap_op(d).mat @ u.mat
        assert np.array_equal(swap_left(u).mat, product)

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_right_matches_matrix_product(self, d):
        u = random_op(d, 48 + d)
        product = u.mat @ swap_op(d).mat
        assert np.array_equal(swap_right(u).mat, product)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_involutions_bitwise(self, d):
        u = random_op(d, 51 + d)
        assert swap_left(swap_left(u)).mat.tobytes() == u.mat.tobytes()
        assert swap_right(swap_right(u)).mat.tobytes() == u.mat.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_norm_preserved_exactly(self, d):
        u = random_op(d, 54 + d)
        assert frobenius_norm_sq(swap_left(u).mat) == frobenius_norm_sq(u.mat)
        assert frobenius_norm_sq(swap_right(u).mat) == frobenius_norm_sq(u.mat)


class TestFanIdentity:
    """swap_left . realign . swap_left == partial_transpose_first, bitwise."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_on_random_matrices(self, d):
        for k in range(10):
            u = random_op(d, 60 + 10 * d + k)
            lhs = swap_left(realign(swap_left(u)))
            rhs = partial_transpose_first(u)
            assert lhs.mat.tobytes() == rhs.mat.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_on_haar_unitaries(self, d):
        for k in range(5):
            u = haar_op(d, 90 + 10 * d + k)
            lhs = swap_left(realign(swap_left(u)))
            rhs = partial_transpose_first(u)
            assert lhs.mat.tobytes() == rhs.mat.tobytes()


# Any finite double, with signed zeros and subnormals drawn often enough
# that most operators contain some.
_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def _any_operator(draw):
    """An operator at d in 2..6 with arbitrary finite entries; the parts are
    viewed as complex, not added, so their bit patterns reach the matrix
    unchanged."""
    d = draw(st.integers(min_value=2, max_value=6))
    n = d * d
    parts = draw(arrays(np.float64, (n, n, 2), elements=_PARTS))
    return BipartiteOperator(d, parts.view(np.complex128).reshape(n, n))


MOVES = (realign, partial_transpose_first, partial_transpose_second, swap_left, swap_right)


class TestIdentityProperties:
    @settings(max_examples=60, deadline=None)
    @given(_any_operator())
    def test_every_move_is_a_bitwise_involution(self, u):
        for move in MOVES:
            assert move(move(u)).mat.tobytes() == u.mat.tobytes(), move.__name__

    @settings(max_examples=60, deadline=None)
    @given(_any_operator())
    def test_interchange_identity_bitwise(self, u):
        lhs = swap_left(realign(swap_left(u)))
        assert lhs.mat.tobytes() == partial_transpose_first(u).mat.tobytes()
