"""Tests for operator constructors and seeded samplers."""

import math
import re

import numpy as np
import pytest

import entpow.densemat
from entpow.densemat import _stack_spans, unitarity_defect
from entpow.entanglement import MAX_MC_SAMPLES, _measures, state_linear_entropy
from entpow.operators import (
    ControlledUSpec,
    _draw_states,
    _exp_swap_stack,
    _finish_states,
    controlled_u,
    exp_swap,
    haar_unitary,
    product_state_batch,
    swap_op,
)
from entpow.rearrange import BipartiteOperator, partial_transpose_first, swap_left


# Seeds that cannot reproduce a draw: none, negative, not an integer, or
# beyond the 64-bit range of every seed.
BAD_SEEDS = [None, -1, True, False, 1.0, "1", np.float64(1), [1, 2], 2**64]


def fail_if_called(*args, **kwargs):
    raise AssertionError("reached the draw past validation")


def haar_spec(d, seed):
    """Controlled-U spec with d independent Haar blocks."""
    return ControlledUSpec(d, tuple(haar_unitary(d, seed + n) for n in range(d)))


# Angles of the swap family: a grid over [-7, 7], plus 0, pi/2 and pi, where
# the family is I, -i S12 and -I up to the rounding of cos and sin.
FAMILY_TS = np.concatenate([np.linspace(-7, 7, 301), [0.0, math.pi / 2, math.pi]])


def exp_swap_reference(d, ts):
    """cos(t) I - i sin(t) S12 for every t of ``ts``, by dense arithmetic on
    the identity and ``swap_op``'s matrix."""
    eye, s = np.eye(d * d, dtype=np.complex128), swap_op(d).mat
    t = ts[:, None, None]
    return np.cos(t) * eye - 1j * np.sin(t) * s


class TestIdentityAndSwap:
    def test_swap_d2_by_hand(self):
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.array_equal(swap_op(2).mat, expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_squares_to_identity(self, d):
        s = swap_op(d).mat
        assert np.array_equal(s @ s, np.eye(d * d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_action_on_basis(self, d):
        s = swap_op(d).mat
        for i in range(d):
            for j in range(d):
                vec = np.zeros(d * d, dtype=complex)
                vec[i * d + j] = 1.0
                out = s @ vec
                assert out[j * d + i] == 1.0
                assert np.count_nonzero(out) == 1

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            swap_op(1)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_swap_is_the_identity_with_rows_moved_by_swap_left(self, d):
        moved = swap_left(BipartiteOperator(d, np.eye(d * d))).mat
        assert swap_op(d).mat.tobytes() == moved.tobytes()


class TestExpSwap:
    def test_t_zero_is_identity(self):
        assert exp_swap(3, 0.0).mat.tobytes() == np.eye(9, dtype=complex).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16])
    def test_stack_equals_the_dense_reference(self, d):
        for lo, hi in _stack_spans(len(FAMILY_TS), d):
            stack = _exp_swap_stack(d, FAMILY_TS[lo:hi])
            reference = exp_swap_reference(d, FAMILY_TS[lo:hi])
            assert np.array_equal(stack, reference)
            for got, want in zip(_measures(stack), _measures(reference), strict=True):
                assert got.tobytes() == want.tobytes()

    def test_t_half_pi_is_minus_i_swap(self):
        got = exp_swap(2, math.pi / 2).mat
        np.testing.assert_allclose(got, -1j * swap_op(2).mat, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_along_the_family(self, d):
        for t in np.linspace(-2.0, 2.0, 9):
            assert unitarity_defect(exp_swap(d, t).mat) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_group_law(self, d):
        rng = np.random.default_rng(61)
        for _ in range(10):
            t, s = rng.uniform(-3, 3, size=2)
            product = exp_swap(d, t).mat @ exp_swap(d, s).mat
            assert np.abs(product - exp_swap(d, t + s).mat).max() <= 1e-12

    def test_sqrt_swap_squares_to_swap_phase(self):
        v = exp_swap(2, math.pi / 4).mat
        assert np.abs(v @ v - exp_swap(2, math.pi / 2).mat).max() <= 1e-12

    def test_rejects_non_finite_parameter(self):
        with pytest.raises(ValueError, match="finite"):
            exp_swap(2, math.nan)
        with pytest.raises(ValueError, match="finite"):
            exp_swap(2, math.inf)
        with pytest.raises(ValueError, match="finite"):
            exp_swap(2, 10**400)  # a Python integer beyond float range

    @pytest.mark.parametrize("t, shown", [
        (None, "None"), ("0.5", "'0.5'"), ([0.5], "[0.5]"), (True, "True"),
    ], ids=["None", "0.5", "t2", "True"])
    def test_rejects_non_numeric_parameter(self, t, shown):
        message = f"parameter t must be a finite number, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exp_swap(2, t)


class TestControlledU:
    def test_cnot_matrix(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        gate = controlled_u(ControlledUSpec(2, (np.eye(2), x)))
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(gate.mat, expected)

    @pytest.mark.parametrize("d", [2, 3])
    def test_action_on_product_basis(self, d):
        spec = haar_spec(d, seed=200 + d)
        gate = controlled_u(spec)
        rng = np.random.default_rng(71)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        for n in range(d):
            e_n = np.zeros(d, dtype=complex)
            e_n[n] = 1.0
            state = np.kron(e_n, phi)
            expected = np.kron(e_n, spec.blocks[n] @ phi)
            assert np.abs(gate.mat @ state - expected).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_invariant_under_first_partial_transpose(self, d):
        gate = controlled_u(haar_spec(d, seed=210 + d))
        assert partial_transpose_first(gate).mat.tobytes() == gate.mat.tobytes()

    def test_wrong_block_count(self):
        with pytest.raises(ValueError, match="exactly 3 blocks"):
            ControlledUSpec(3, (np.eye(3), np.eye(3)))

    @pytest.mark.parametrize("blocks, shown", [
        (None, "None"), (5, "5"), (2.0, "2.0"), (np.float64(2), "2.0"),
    ], ids=["None", "5", "2.0", "np.float64(2.0)"])
    def test_blocks_that_are_no_sequence_rejected(self, blocks, shown):
        # echoed as every input rule echoes: a NumPy scalar as its Python value
        with pytest.raises(ValueError, match=f"exactly 2 blocks, got {re.escape(shown)}$"):
            ControlledUSpec(2, blocks)

    def test_non_unitary_block_named(self):
        with pytest.raises(ValueError, match="block 1"):
            ControlledUSpec(2, (np.eye(2), 2.0 * np.eye(2)))

    def test_wrong_block_shape_named(self):
        with pytest.raises(ValueError, match="block 0"):
            ControlledUSpec(2, (np.eye(3), np.eye(2)))

    @pytest.mark.parametrize("block, message", [
        (2.0 * np.eye(2), "block 1 is not unitary: defect 3.000e+00 exceeds 1.0e-09"),
        ((1 + 1e-8) * np.eye(2), "block 1 is not unitary: defect 2.000e-08 exceeds 1.0e-09"),
        (1e200 * np.eye(2), "block 1 is not unitary: defect inf exceeds 1.0e-09"),
    ], ids=["2I", "tiny defect", "overflow"])
    def test_non_unitary_block_message(self, block, message):
        with pytest.raises(ValueError) as err:
            ControlledUSpec(2, (np.eye(2), block))
        assert str(err.value) == message

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_blocks_are_gated_in_one_defect_pass(self, monkeypatch, d):
        shapes = []
        defects = entpow.densemat._unitarity_defects

        def counting(stack):
            shapes.append(stack.shape)
            return defects(stack)

        monkeypatch.setattr(entpow.densemat, "_unitarity_defects", counting)
        ControlledUSpec(d, tuple(haar_unitary(d, s) for s in range(d)))
        assert shapes == [(d, d, d)]

    def test_first_failing_block_is_named(self):
        blocks = (np.eye(3), 3.0 * np.eye(3), 2.0 * np.eye(3))
        with pytest.raises(ValueError, match="^block 1 is not unitary: defect 8.000e"):
            ControlledUSpec(3, blocks)

    def test_every_shape_checked_before_any_unitarity(self):
        with pytest.raises(ValueError, match="^block 1 must be 2x2, got 3x3$"):
            ControlledUSpec(2, (2.0 * np.eye(2), np.eye(3)))


class TestHaarUnitary:
    @pytest.mark.parametrize("d_total", [2, 4, 9])
    def test_unitarity(self, d_total):
        for seed in range(5):
            assert unitarity_defect(haar_unitary(d_total, seed)) <= 1e-12

    def test_deterministic_in_seed(self):
        a = haar_unitary(4, seed=42)
        b = haar_unitary(4, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = haar_unitary(4, seed=1)
        b = haar_unitary(4, seed=2)
        assert np.abs(a - b).max() > 1e-6

    def test_one_dimensional_case_is_phase(self):
        u = haar_unitary(1, seed=7)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_rejects_non_positive_dimension(self):
        with pytest.raises(ValueError):
            haar_unitary(0, seed=1)

    @pytest.mark.parametrize("d_total", [0, 257, 10**5, True, 4.0, "4", None])
    def test_dimension_rejected_before_drawing(self, monkeypatch, d_total):
        monkeypatch.setattr(np.random, "default_rng", fail_if_called)
        with pytest.raises(ValueError, match="dimension must be an integer from 1 to 256"):
            haar_unitary(d_total, seed=1)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_rejected_before_drawing(self, monkeypatch, seed):
        monkeypatch.setattr(np.random, "default_rng", fail_if_called)
        with pytest.raises(ValueError,
                           match="^seed must be an integer from 0 to 18446744073709551615, got "):
            haar_unitary(4, seed)

    def test_numpy_integers_accepted(self):
        u = haar_unitary(np.int64(4), np.uint64(2**64 - 1))
        assert u.tobytes() == haar_unitary(4, 2**64 - 1).tobytes()

    def test_trace_moment(self):
        # For Haar measure, E[|Tr U|^2] = 1 at any dimension.
        samples = [abs(np.trace(haar_unitary(4, seed))) ** 2 for seed in range(2000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.1)


def sample_major_states(rng, n, d):
    """The sampler's earlier steps, sample-major throughout: the norm is
    ``np.linalg.norm(z, axis=2)``'s and the outer product one broadcast."""
    g = rng.standard_normal((n, 2, 2, d))
    z = np.empty((n, 2, d), dtype=np.complex128)
    z.real = g[:, :, 0]
    z.imag = g[:, :, 1]
    sq = np.conjugate(z) * z
    z /= np.sqrt(np.add.reduce(sq.real, axis=2, keepdims=True))
    return (z[:, 0, :, None] * z[:, 1, None, :]).reshape(n, d * d)


class TestProductStates:
    @pytest.mark.parametrize("d", range(2, 8))
    def test_bitwise_the_sample_major_states_up_to_d7(self, d):
        for n in (1, 7, 16384 // (d * d)):
            got = product_state_batch(np.random.default_rng(100 * d + n), n, d)
            ref = sample_major_states(np.random.default_rng(100 * d + n), n, d)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [8, 12, 16])
    def test_within_rounding_of_the_sample_major_states_from_d8(self, d):
        # numpy's reduction adds 8 or more terms pairwise, the sampler in order
        for n in (1, 7, 16384 // (d * d)):
            got = product_state_batch(np.random.default_rng(100 * d + n), n, d)
            ref = sample_major_states(np.random.default_rng(100 * d + n), n, d)
            assert np.abs(got - ref).max() <= 4e-16

    @pytest.mark.parametrize("d", [2, 5])
    def test_transpose_is_a_c_contiguous_gemm_operand(self, d):
        batch = product_state_batch(np.random.default_rng(3), 40, d)
        assert batch.shape == (40, d * d) and batch.T.flags.c_contiguous

    def test_zero_states(self):
        assert product_state_batch(np.random.default_rng(3), 0, 3).shape == (0, 9)

    @pytest.mark.parametrize("n, d", [
        (5, 1), (5, 17), (5, True), (5, 2.0), (5, "2"), (5, None),
        (-1, 2), (2.5, 2), (True, 2), (False, 2), (np.float64(4), 2), ("4", 2), (None, 2),
        pytest.param(MAX_MC_SAMPLES + 1, 2, id="MAX_MC_SAMPLES+1"),
        pytest.param(10**400, 2, id="10**400"),
        # the cap is 640 MB of states, 16 d^2 bytes each: MAX_MC_SAMPLES * 4 // d**2
        (156_251, 16), (2_500_001, 4),
    ], ids=repr)
    def test_rejected_before_drawing(self, n, d):
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="local dimension must be|number of states must be"):
            product_state_batch(rng, n, d)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n, d, limit", [
        (10_000_001, 2, 10_000_000), (4_444_445, 3, 4_444_444), (156_251, 16, 156_250),
    ])
    def test_limit_is_named_for_the_dimension(self, n, d, limit):
        message = f"number of states must be an integer from 0 to {limit}, got {n}"
        with pytest.raises(ValueError) as err:
            product_state_batch(np.random.default_rng(11), n, d)
        assert str(err.value) == message

    @pytest.mark.parametrize("d", range(2, 17))
    def test_limit_is_the_cap_on_state_bytes_at_every_d(self, d):
        # 640 MB of states at any d: MAX_MC_SAMPLES of them at d = 2
        limit = MAX_MC_SAMPLES * 4 // d**2
        message = f"number of states must be an integer from 0 to {limit}, got {limit + 1}"
        with pytest.raises(ValueError) as err:
            product_state_batch(np.random.default_rng(11), limit + 1, d)
        assert str(err.value) == message

    def test_numpy_integers_accepted(self):
        got = product_state_batch(np.random.default_rng(4), np.int64(9), np.uint8(3))
        assert got.tobytes() == product_state_batch(np.random.default_rng(4), 9, 3).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_normalized(self, d):
        batch = product_state_batch(np.random.default_rng(5), 50, d)
        np.testing.assert_allclose(np.sum(np.abs(batch) ** 2, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_zero_linear_entropy(self, d):
        for row in product_state_batch(np.random.default_rng(6), 10, d):
            assert abs(state_linear_entropy(row.reshape(d, d))) <= 1e-12

    def test_deterministic_in_seed(self):
        a = product_state_batch(np.random.default_rng(9), 20, 3)
        b = product_state_batch(np.random.default_rng(9), 20, 3)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_batch_split_is_one_call(self, d):
        one = product_state_batch(np.random.default_rng(29), 2000, d)
        rng = np.random.default_rng(29)
        parts = [product_state_batch(rng, m, d) for m in (1, 7, 999, 993)]
        assert np.concatenate(parts).tobytes() == one.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 4097])
    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_batch_is_the_finished_draw(self, d, n):
        # the estimator draws and finishes on either of its threads: the two
        # steps give the public sampler's bits
        draw = _draw_states(np.random.default_rng(31), n, d)
        assert draw.shape == (n, 2, 2, d)
        got = product_state_batch(np.random.default_rng(31), n, d)
        assert got.shape == (n, d * d) and got.tobytes() == _finish_states(draw).tobytes()

    def test_batch_rows_are_product_states(self):
        d = 3
        batch = product_state_batch(np.random.default_rng(23), 50, d)
        norms = np.sum(np.abs(batch) ** 2, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        for row in batch[:10]:
            assert abs(state_linear_entropy(row.reshape(d, d))) <= 1e-12


class TestLocalDimensionCap:
    # every public builder of a two-qudit object, at local dimension d
    BUILDERS = {
        "BipartiteOperator": lambda d: BipartiteOperator(d, np.eye(4)),
        "swap_op": swap_op,
        "exp_swap": lambda d: exp_swap(d, 0.5),
        "ControlledUSpec": lambda d: ControlledUSpec(d, (np.eye(2),) * 2),
    }

    @pytest.mark.parametrize("d", [17, 10**5, np.int64(17), 1, True, 2.0, "2"])
    @pytest.mark.parametrize("name", BUILDERS)
    def test_out_of_range_rejected(self, name, d):
        with pytest.raises(ValueError, match="local dimension must be an integer from 2 to 16"):
            self.BUILDERS[name](d)

    @pytest.mark.parametrize("d", [2, np.int64(2), np.uint8(2)])
    @pytest.mark.parametrize("name", BUILDERS)
    def test_integer_types_accepted(self, name, d):
        built = self.BUILDERS[name](d)
        assert built.d == 2 and type(built.d) is int

    def test_largest_dimension_accepted(self):
        assert swap_op(16).mat.shape == (256, 256)
