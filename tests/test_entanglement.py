"""Tests for the entanglement measures.

Frozen expected values used here, all hand-derivable:

  - state I/sqrt(d):            linear entropy 1 - 1/d
  - state diag(sqrt .8, sqrt .2): 1 - (.64 + .04) = 0.32
  - E(S12) = 1 - 1/d^2,  e_p(S12) = 0
  - V(t) = exp(-i t S12):  E(V) = (1 - 1/d^2)(1 - cos^4 t)
                           E(S12 V) = (1 - 1/d^2)(1 - sin^4 t)
                           e_p(V) = (d^2-1)/(2 (d+1)^2) * sin^2(2t)
    so E(V(pi/6), d=3) = 7/18, E(S12 V(pi/3), d=2) = 21/64,
    e_p(V(pi/4), d=2) = 1/6
  - CNOT: operator-Schmidt coefficients (2, 2, 0, 0) give E = 1/2, and
    e_p = 2/9; combining the two in the e_p formula gives E(S12 CNOT) = 3/4
  - controlled-U: E(S12 C) = 1 - 1/d^2 and e_p = (d/(d+1))^2 E(C)
"""

import concurrent.futures
import itertools
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import entpow.densemat
import entpow.entanglement
from entpow.densemat import unitarity_defect
from entpow.entanglement import (
    MAX_MC_SAMPLES,
    EntanglementReport,
    McEstimate,
    NormalizationError,
    UnitarityError,
    _mc_estimates,
    _sample_entropies,
    entangling_power,
    entangling_power_mc,
    entanglement_report,
    operator_entanglement,
    state_linear_entropy,
    swap_entanglement,
    swapped_operator_entanglement,
)
from entpow.operators import (
    ControlledUSpec,
    _haar_stack,
    controlled_u,
    exp_swap,
    haar_unitary,
    product_state_batch,
    swap_op,
)
from entpow.rearrange import BipartiteOperator, realign, swap_left

CNOT = controlled_u(ControlledUSpec(2, (np.eye(2), np.array([[0, 1], [1, 0]]))))


def haar_op(d, seed):
    return BipartiteOperator(d, haar_unitary(d * d, seed))


def local_product(a, b):
    return np.kron(a, b)


class TestStateLinearEntropy:
    def test_product_basis_state_is_zero(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        assert state_linear_entropy(a) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled(self, d):
        a = np.eye(d, dtype=complex) / math.sqrt(d)
        assert state_linear_entropy(a) == pytest.approx(1 - 1 / d, abs=1e-14)

    def test_two_term_schmidt_state(self):
        a = np.diag([math.sqrt(0.8), math.sqrt(0.2)]).astype(complex)
        assert state_linear_entropy(a) == pytest.approx(0.32, abs=1e-14)

    def test_unnormalized_raises_with_norm(self):
        with pytest.raises(NormalizationError) as err:
            state_linear_entropy(np.eye(2, dtype=complex))
        assert err.value.norm == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert "1.41421" in str(err.value)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            state_linear_entropy(np.ones((1, 2), dtype=complex))

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(81)
        d = 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a /= math.sqrt(np.sum(np.abs(a) ** 2))
        base = state_linear_entropy(a)
        for k in range(5):
            left = haar_unitary(d, 300 + k)
            right = haar_unitary(d, 400 + k)
            assert state_linear_entropy(left @ a @ right.T) == pytest.approx(base, abs=1e-12)


class TestOperatorEntanglement:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_swap_reaches_maximum(self, d):
        assert operator_entanglement(swap_op(d)) == pytest.approx(1 - 1 / d**2, abs=1e-14)
        assert swap_entanglement(d) == 1 - 1 / d**2

    @pytest.mark.parametrize("d", [2.5, 10**6, 17, 1, True])
    def test_swap_entanglement_checks_the_dimension(self, d):
        with pytest.raises(ValueError, match=f"must be an integer from 2 to 16, got {d!r}"):
            swap_entanglement(d)

    def test_swap_entanglement_accepts_numpy_integers(self):
        assert swap_entanglement(np.int64(3)) == swap_entanglement(3) == 1 - 1 / 9

    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_is_zero(self, d):
        eye = BipartiteOperator(d, np.eye(d * d))
        assert operator_entanglement(eye) == pytest.approx(0.0, abs=1e-14)

    def test_swap_family_value(self):
        # d=3, t=pi/6: (8/9)(1 - cos^4) = (8/9)(7/16) = 7/18
        got = operator_entanglement(exp_swap(3, math.pi / 6))
        assert got == pytest.approx(7 / 18, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_local_factors_do_not_matter(self, d):
        u = haar_op(d, 501 + d)
        base = operator_entanglement(u)
        a, b, c, e = (haar_unitary(d, 510 + d * 10 + k) for k in range(4))
        dressed = BipartiteOperator(d, local_product(a, b) @ u.mat @ local_product(c, e))
        assert operator_entanglement(dressed) == pytest.approx(base, abs=1e-12)

    def test_matches_state_entropy_of_normalized_realignment(self):
        # U/d seen as a pure state of two d^2-level systems has coefficient
        # matrix U^R / d; the two definitions must agree.
        u = haar_op(3, 517)
        via_state = state_linear_entropy(realign(u).mat / u.d)
        assert operator_entanglement(u) == pytest.approx(via_state, abs=1e-12)

    def test_non_unitary_raises_with_defect(self):
        bad = BipartiteOperator(2, 2.0 * np.eye(4, dtype=complex))
        with pytest.raises(UnitarityError) as err:
            operator_entanglement(bad)
        assert err.value.defect == pytest.approx(3.0, abs=1e-12)
        assert err.value.tol == 1e-9
        assert "defect" in str(err.value)

    def test_tolerance_is_adjustable(self):
        # the scalar measures gate at UNITARITY_TOL; a looser one goes through the report
        mat = (1.0 + 2e-7) * haar_unitary(4, 55)
        op = BipartiteOperator(2, mat)
        with pytest.raises(UnitarityError):
            operator_entanglement(op)
        assert not entanglement_report(op).unitarity_ok
        report = entanglement_report(op, tol=1e-3)
        assert report.unitarity_ok and report.e_power is not None

    @pytest.mark.parametrize(
        "measure", [operator_entanglement, swapped_operator_entanglement, entangling_power]
    )
    def test_huge_finite_entries_raise_without_warning(self, measure):
        # the Gram product overflows: an infinite defect, and no RuntimeWarning
        with pytest.raises(UnitarityError) as err:
            measure(BipartiteOperator(2, 1e200 * np.eye(4)))
        assert err.value.defect == math.inf


class TestTolerance:
    ONES = BipartiteOperator(2, np.ones((4, 4)))  # defect 4

    NAN = pytest.param(math.nan, "must be a finite number, got nan", id="nan")
    INF = pytest.param(math.inf, "must be a finite number, got inf", id="inf")
    HUGE = pytest.param(10**400, "must be a finite number, got 100000000000... (401 characters)",
                        id="10**400")  # finite, but beyond float range

    @pytest.mark.parametrize("tol, message", [
        NAN, INF, pytest.param(-1e-12, "must be nonnegative, got -1e-12", id="-1e-12"), HUGE,
    ])
    @pytest.mark.parametrize("measure", [entanglement_report])
    def test_rejected_before_any_value(self, measure, tol, message):
        with pytest.raises(ValueError, match=f"^unitarity tolerance {re.escape(message)}$") as err:
            measure(self.ONES, tol=tol)
        assert not isinstance(err.value, UnitarityError)

    @pytest.mark.parametrize("tol, message", [NAN, INF, HUGE])
    def test_rejected_by_monte_carlo(self, tol, message):
        with pytest.raises(ValueError, match=f"^unitarity tolerance {re.escape(message)}$"):
            entangling_power_mc(self.ONES, 500, seed=1, tol=tol)

    def test_zero_tolerance_accepts_exact_unitaries(self):
        report = entanglement_report(swap_op(2), tol=0.0)
        assert report.unitarity_ok and report.unitarity_defect == 0.0
        assert report.e_op == pytest.approx(0.75, abs=1e-15)


class TestSwappedOperatorEntanglement:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_reaches_maximum(self, d):
        got = swapped_operator_entanglement(BipartiteOperator(d, np.eye(d * d)))
        assert got == pytest.approx(1 - 1 / d**2, abs=1e-14)

    def test_swap_is_zero(self):
        assert swapped_operator_entanglement(swap_op(3)) == pytest.approx(0.0, abs=1e-14)

    def test_swap_family_value(self):
        # d=2, t=pi/3: (3/4)(1 - sin^4) = (3/4)(7/16) = 21/64
        got = swapped_operator_entanglement(exp_swap(2, math.pi / 3))
        assert got == pytest.approx(21 / 64, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_controlled_u_reaches_maximum(self, d):
        blocks = tuple(haar_unitary(d, 530 + d * 10 + n) for n in range(d))
        gate = controlled_u(ControlledUSpec(d, blocks))
        got = swapped_operator_entanglement(gate)
        assert got == pytest.approx(1 - 1 / d**2, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_explicit_left_multiplication(self, d):
        u = haar_op(d, 541 + d)
        direct = operator_entanglement(swap_left(u))
        via_transpose = swapped_operator_entanglement(u)
        assert abs(direct - via_transpose) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_left_and_right_swap_agree(self, d):
        # S12 U and U S12 share operator-Schmidt coefficients for every U.
        u = haar_op(d, 551 + d)
        report = entanglement_report(u)
        assert report.e_op_swapped == pytest.approx(report.e_op_swapped_right, abs=1e-12)


class TestEntanglingPower:
    def test_swap_has_none(self):
        assert entangling_power(swap_op(2)) == pytest.approx(0.0, abs=1e-14)
        assert entangling_power(swap_op(5)) == pytest.approx(0.0, abs=1e-14)

    def test_identity_has_none(self):
        assert entangling_power(BipartiteOperator(3, np.eye(9))) == pytest.approx(0.0, abs=1e-14)

    def test_sqrt_swap_value(self):
        got = entangling_power(exp_swap(2, math.pi / 4))
        assert got == pytest.approx(1 / 6, abs=1e-12)

    def test_cnot_values(self):
        assert operator_entanglement(CNOT) == pytest.approx(0.5, abs=1e-13)
        assert swapped_operator_entanglement(CNOT) == pytest.approx(0.75, abs=1e-13)
        assert entangling_power(CNOT) == pytest.approx(2 / 9, abs=1e-13)

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_family_formula(self, d):
        scale = (d * d - 1) / (2.0 * (d + 1) ** 2)
        for t in np.linspace(0.0, math.pi, 11):
            got = entangling_power(exp_swap(d, t))
            assert got == pytest.approx(scale * math.sin(2 * t) ** 2, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_combination_formula(self, d):
        # e_p must equal (d/(d+1))^2 (E(U) + E(S12 U) - E(S12))
        for k in range(5):
            u = haar_op(d, 601 + 10 * d + k)
            combined = (d / (d + 1)) ** 2 * (
                operator_entanglement(u)
                + swapped_operator_entanglement(u)
                - swap_entanglement(d)
            )
            assert abs(entangling_power(u) - combined) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_controlled_u_proportionality(self, d):
        blocks = tuple(haar_unitary(d, 630 + d * 10 + n) for n in range(d))
        gate = controlled_u(ControlledUSpec(d, blocks))
        expected = (d / (d + 1)) ** 2 * operator_entanglement(gate)
        assert entangling_power(gate) == pytest.approx(expected, abs=1e-12)

    def test_non_unitary_raises(self):
        with pytest.raises(UnitarityError):
            v = np.eye(2).ravel()
            entangling_power(BipartiteOperator(2, np.outer(v, v)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_range_on_haar_sample(self, d):
        cap = 1 - 1 / d**2 + 1e-9
        for k in range(200):
            u = haar_op(d, 700 + 1000 * d + k)
            e = operator_entanglement(u)
            es = swapped_operator_entanglement(u)
            ep = entangling_power(u)
            assert 0.0 <= e <= cap
            assert 0.0 <= es <= cap
            assert ep >= -1e-9
            assert ep <= cap


class TestMonteCarlo:
    def test_deterministic(self):
        u = exp_swap(2, 0.9)
        a = entangling_power_mc(u, 500, seed=3)
        b = entangling_power_mc(u, 500, seed=3)
        assert a == b

    def test_seed_matters(self):
        u = exp_swap(2, 0.9)
        a = entangling_power_mc(u, 500, seed=3)
        b = entangling_power_mc(u, 500, seed=4)
        assert a.mean != b.mean

    def test_estimate_metadata(self):
        est = entangling_power_mc(CNOT, 256, seed=11)
        assert est.n_samples == 256
        assert est.seed == 11
        assert est.stderr > 0.0

    def test_sample_floor(self):
        message = "number of samples must be an integer from 100 to 10000000, got 99"
        with pytest.raises(ValueError, match=f"^{message}$"):
            entangling_power_mc(CNOT, 99, seed=1)

    def test_non_unitary_rejected(self):
        bad = BipartiteOperator(2, 2.0 * np.eye(4, dtype=complex))
        with pytest.raises(UnitarityError):
            entangling_power_mc(bad, 500, seed=1)
        with pytest.raises(UnitarityError):  # one bad operator stops a whole stack
            _mc_estimates(np.stack([CNOT.mat, bad.mat]), 500, seed=1)

    def test_statistics_wiring(self):
        # mean and stderr must be exactly those of the sampled entropies
        u = exp_swap(2, 0.7)
        est = entangling_power_mc(u, 500, seed=123)
        entropies = _sample_entropies(u.mat[None], 500, np.random.default_rng(123))[0]
        assert est.mean == float(entropies.mean())
        assert est.stderr == float(entropies.std(ddof=1)) / math.sqrt(500)
        # and, for a stack, each operator's estimate is that of its own row
        stack = np.stack([u.mat, CNOT.mat, haar_op(2, 9).mat])
        rows = _sample_entropies(stack, 500, np.random.default_rng(123))
        for est, row in zip(_mc_estimates(stack, 500, seed=123), rows, strict=True):
            assert (est.n_samples, est.seed) == (500, 123)
            assert est.mean == float(row.mean())
            assert est.stderr == float(row.std(ddof=1)) / math.sqrt(500)

    @pytest.mark.parametrize("op", [BipartiteOperator(2, np.eye(4)), swap_op(3)])
    def test_local_gates_give_zero(self, op):
        est = entangling_power_mc(op, 300, seed=5)
        assert abs(est.mean) <= 1e-12
        assert est.stderr <= 1e-12

    def test_agrees_with_closed_form(self):
        u = exp_swap(2, math.pi / 4)
        est = entangling_power_mc(u, 50_000, seed=1)
        assert abs(est.mean - 1 / 6) <= 5 * est.stderr
        assert est.stderr < 1e-3

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_for_haar_unitaries(self, d):
        for k in range(3):
            u = haar_op(d, 800 + 10 * d + k)
            est = entangling_power_mc(u, 20_000, seed=900 + k)
            assert abs(est.mean - entangling_power(u)) <= max(5 * est.stderr, 0.01)


def fail_if_called(*args, **kwargs):
    raise AssertionError("drew samples past validation")


def mc_peak_bytes(stack, n):
    """Traced peak of one n-sample estimate of every operator of a stack,
    after a warm-up call, so that first-call allocations fall outside the
    window."""
    _mc_estimates(stack, 1000, seed=1)
    tracemalloc.start()
    try:
        _mc_estimates(stack, n, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sample_bytes(d, k):
    """Bytes one sample costs across the arrays of a chunk, for a stack of k
    operators: 64 k d^2 for the kernel, 16 d^2 for the state, 96 d for the draw."""
    return 64 * k * d * d + 16 * d * d + 96 * d


def mc_chunk(d, k):
    """Samples per Monte-Carlo chunk at the default budget."""
    return max(1, entpow.densemat._MC_CHUNK_BYTES // sample_bytes(d, k))


def count_chunks(monkeypatch):
    """A list that gets each chunk's sample count as the estimator draws it,
    raw for the worker or as the caller's finished states."""
    chunks = []
    for name in ("_draw_states", "product_state_batch"):
        def counting(rng, n, d, draw=getattr(entpow.entanglement, name)):
            chunks.append(n)
            return draw(rng, n, d)

        monkeypatch.setattr(entpow.entanglement, name, counting)
    return chunks


class TestMonteCarloChunks:
    """The estimator streams its samples through chunks of mc_chunk(d, k) samples."""

    @pytest.mark.parametrize("d, k, samples", [
        (2, 1, 4096), (3, 1, 2080), (5, 1, 845), (8, 1, 356), (16, 1, 95),
        (2, 6, 1170), (3, 5, 633),  # the stacks of the verify oracle
    ])
    def test_chunk_sizes(self, d, k, samples):
        assert mc_chunk(d, k) == samples

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_entropies_do_not_depend_on_chunk_size(self, monkeypatch, rows):
        d, n = 3, 4000  # two chunks at the default size, eight for six operators
        stack = np.stack([haar_op(d, 41 + k).mat for k in range(6)])
        refs = [_sample_entropies(u[None], n, np.random.default_rng(8))[0] for u in stack]
        chunks = count_chunks(monkeypatch)
        # a budget of one sample, of seven samples of one operator, and of the
        # whole run in one chunk
        budget = {1: 1, 7: 7 * sample_bytes(d, 1), None: 10**9}[rows]
        monkeypatch.setattr(entpow.entanglement, "_MC_CHUNK_BYTES", budget)
        got = _sample_entropies(stack[:1], n, np.random.default_rng(8))
        assert np.max(np.abs(got[0] - refs[0])) <= 2e-15
        # six operators share one stream in chunks of at most a sixth the
        # samples, and each row is still its own operator's entropies
        single = len(chunks)
        stacked = _sample_entropies(stack, n, np.random.default_rng(8))
        assert np.max(np.abs(stacked - refs)) <= 2e-15
        # the patch reached the estimator: a budget that was not read fails here
        assert (single, len(chunks) - single) == {1: (n, n), 7: (572, n), None: (1, 1)}[rows]

    # (d, n, operator seed, sample seed, mean, stderr) of the single-operator
    # estimate, recorded bit for bit before estimates were stacked; each n
    # spans at least three chunks
    @pytest.mark.parametrize("d, n, op_seed, seed, mean, stderr", [
        (2, 20000, 61, 71, "0x1.b05657362187dp-3", "0x1.e1468680a459ap-11"),
        (3, 6000, 62, 72, "0x1.9b93ef6a830d6p-2", "0x1.4e02f24baa622p-10"),
        (5, 2500, 63, 73, "0x1.3ab91d6a4825ap-1", "0x1.0522437725884p-10"),
    ])
    def test_single_operator_estimate_is_bitwise_pinned(self, d, n, op_seed, seed, mean, stderr):
        est = entangling_power_mc(haar_op(d, op_seed), n, seed)
        assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)

    def test_fixed_seed_and_count_span_chunks_identically(self):
        # d=5: 845 samples per chunk, so 2000 samples take three chunks
        u = haar_op(5, 43)
        assert entangling_power_mc(u, 2000, seed=6) == entangling_power_mc(u, 2000, seed=6)

    def test_peak_memory_is_the_entropies_plus_one_chunk(self):
        n = 200_000
        assert mc_peak_bytes(haar_op(5, 47).mat[None], n) <= 8 * n + 4 * 2**20

    def test_stacked_peak_memory_is_the_entropies_plus_one_chunk(self):
        # six operators, the largest stack of the verify oracle
        k, n = 6, 200_000
        haar = _haar_stack(4, k - 1, np.random.default_rng(3))
        stack = np.concatenate([exp_swap(2, 0.7).mat[None], haar])
        assert mc_peak_bytes(stack, n) <= 8 * k * n + 4 * 2**20

    def test_stacked_peak_memory_at_d3(self):
        # the verify oracle's d = 3 stack, whose chunks grew most with the rule
        k, n = 5, 200_000
        stack = _haar_stack(9, k, np.random.default_rng(5))
        assert mc_peak_bytes(stack, n) <= 8 * k * n + 4 * 2**20

    def test_peak_memory_at_d16(self):
        n = 20_000
        assert mc_peak_bytes(haar_op(16, 48).mat[None], n) <= 8 * n + 4 * 2**20

    def test_spread_is_taken_in_place(self):
        # a second (n,) array for the standard deviation would add 8 n bytes
        n = 1_000_000
        assert mc_peak_bytes(exp_swap(2, 0.7).mat[None], n) <= 8 * n + 2 * 2**20

    @pytest.mark.parametrize("n", [MAX_MC_SAMPLES + 1, 10**12])
    def test_sample_cap(self, monkeypatch, n):
        monkeypatch.setattr(entpow.entanglement, "_draw_states", fail_if_called)
        message = f"number of samples must be an integer from 100 to {MAX_MC_SAMPLES}, got {n}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            entangling_power_mc(CNOT, n, seed=1)
        # the cap itself passes validation and reaches the patched draw
        with pytest.raises(AssertionError, match="^drew samples past validation$"):
            entangling_power_mc(CNOT, MAX_MC_SAMPLES, seed=1)

    @pytest.mark.parametrize("n", [True, 500.0, "500", None, np.float64(500)])
    def test_sample_count_must_be_an_integer(self, monkeypatch, n):
        monkeypatch.setattr(entpow.entanglement, "_draw_states", fail_if_called)
        with pytest.raises(ValueError, match="must be an integer"):
            entangling_power_mc(CNOT, n, seed=1)

    def test_numpy_integer_count_accepted(self):
        est = entangling_power_mc(CNOT, np.int64(300), seed=2)
        assert est == entangling_power_mc(CNOT, 300, seed=2)

    @pytest.mark.parametrize("seed", [None, -1, True, 1.0, "1", np.float64(1), 2**64])
    def test_seed_rejected_before_drawing(self, monkeypatch, seed):
        monkeypatch.setattr(entpow.entanglement, "_draw_states", fail_if_called)
        monkeypatch.setattr(np.random, "default_rng", fail_if_called)
        with pytest.raises(ValueError,
                           match="^seed must be an integer from 0 to 18446744073709551615, got "):
            entangling_power_mc(CNOT, 500, seed)

    def test_numpy_integer_seed_accepted(self):
        est = entangling_power_mc(CNOT, 300, np.uint64(2**64 - 1))
        assert est == entangling_power_mc(CNOT, 300, 2**64 - 1)


def sequential_entropies(stack, d, n, rng):
    """The (k, n) entropies by the steps the estimator took on one thread,
    with fresh arrays: each chunk drawn, then evaluated, before the next."""
    k = len(stack)
    step = mc_chunk(d, k)
    ops = stack.reshape(k * d * d, d * d)
    entropies = np.empty((k, n))
    for lo in range(0, n, step):
        m = min(step, n - lo)
        coeff = (ops @ product_state_batch(rng, m, d).T).reshape(k, d, d, m)
        conj = coeff.conj()
        rho = coeff[:, :, None, 0] * conj[:, None, :, 0]
        for j in range(1, d):
            rho += coeff[:, :, None, j] * conj[:, None, :, j]
        x = rho.view(np.float64).reshape(k, d * d, 2 * m)
        sq = np.einsum("kis,kis->ks", x, x)
        entropies[:, lo:lo + m] = 1.0 - (sq[:, 0::2] + sq[:, 1::2])
    return entropies


def before_each_chunk(monkeypatch, hook):
    """Make every entropy kernel call ``hook()``, on its own thread, before
    it evaluates a chunk."""
    kernel = entpow.entanglement._entropy_kernel

    def patched(*args):
        hook()
        kernel(*args)

    monkeypatch.setattr(entpow.entanglement, "_entropy_kernel", patched)


class KernelFault(Exception):
    pass


def placing_states(monkeypatch, delayed=None):
    """A list that gets, for each chunk of the estimator, the thread that made
    its states: the caller's ``product_state_batch`` or the worker's
    ``_finish_states``.  ``delayed="worker"`` holds the worker on each of the
    first three chunks until the caller has asked whether that chunk is
    done, so the caller finds it busy at those handoffs; ``delayed="caller"``
    holds each draw after the first until the chunk before it is done, so
    the caller finds the worker idle at every handoff.  Both waits hang on
    the executor's futures, not on sleeps."""
    made_on = []
    checked, evaluated = threading.Semaphore(0), threading.Semaphore(0)
    draws, chunks = itertools.count(), itertools.count()
    ent = entpow.entanglement
    draw, batch, finish, kernel = (
        ent._draw_states, ent.product_state_batch, ent._finish_states, ent._entropy_kernel)

    class Handoff:
        """A future that lets a held worker go once the caller has asked it."""

        def __init__(self, future):
            self.future = future

        def done(self):
            done = self.future.done()
            checked.release()
            return done

        def result(self):
            return self.future.result()

    class Watched(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args):
            future = super().submit(*args)
            # a done-callback runs once the future is marked done
            future.add_done_callback(lambda _: evaluated.release())
            return Handoff(future)

    def hold():
        if delayed == "caller" and next(draws) > 0:
            assert evaluated.acquire(timeout=10)

    def drawing(*args):
        hold()
        return draw(*args)

    def batching(*args):
        hold()
        made_on.append(threading.get_ident())
        return batch(*args)

    def finishing(raw):
        made_on.append(threading.get_ident())
        return finish(raw)

    def evaluating(*args):
        if delayed == "worker" and next(chunks) < 3:
            assert checked.acquire(timeout=10)
        kernel(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Watched)
    monkeypatch.setattr(ent, "_draw_states", drawing)
    monkeypatch.setattr(ent, "product_state_batch", batching)
    monkeypatch.setattr(ent, "_finish_states", finishing)
    monkeypatch.setattr(ent, "_entropy_kernel", evaluating)
    return made_on


class TestMonteCarloPipeline:
    """The caller draws each chunk; the worker makes its states while it keeps
    up, and the caller makes them once it has fallen behind."""

    @pytest.mark.parametrize("delayed", [None, "worker", "caller"])
    @pytest.mark.parametrize("k", [1, 6])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_entropies_are_the_sequential_bits(self, monkeypatch, d, k, delayed):
        # a held worker is busy at the handoffs of chunks 1 and 2, so the
        # caller makes the states of chunks 2 and 3; a held caller finds it
        # idle at every handoff, so the worker makes them all
        made_on = placing_states(monkeypatch, delayed)
        stack = _haar_stack(d * d, k, np.random.default_rng(10 * d + k))
        n = 3 * mc_chunk(d, k) + 17  # three full chunks and a short one
        got = _sample_entropies(stack, n, np.random.default_rng(4))
        assert got.tobytes() == sequential_entropies(stack, d, n, np.random.default_rng(4)).tobytes()
        # the first two chunks always go to the worker as raw draws
        on_caller = made_on.count(threading.get_ident())
        assert len(made_on) == 4 and on_caller <= 2
        if delayed:
            assert on_caller == {"worker": 2, "caller": 0}[delayed]

    @pytest.mark.parametrize("fail_at", [1, 3, 5])
    def test_kernel_error_reaches_the_caller_and_the_worker_is_joined(self, monkeypatch, fail_at):
        calls = itertools.count(1)

        def hook():
            if next(calls) == fail_at:
                raise KernelFault(f"chunk {fail_at}")

        before_each_chunk(monkeypatch, hook)
        baseline = threading.active_count()
        # d=2: 4096 samples per chunk, so 20,000 samples take five chunks
        with pytest.raises(KernelFault, match=f"^chunk {fail_at}$"):
            entangling_power_mc(haar_op(2, 5), 20_000, seed=1)
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("delayed", [None, "worker"])
    def test_the_generator_is_drawn_only_on_the_calling_thread(self, monkeypatch, delayed):
        drawn_on, evaluated_on = [], []

        class Spy:
            """A generator that records the thread of every draw."""

            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, shape):
                drawn_on.append(threading.get_ident())
                return self.rng.standard_normal(shape)

        def hook():
            evaluated_on.append(threading.get_ident())
            if delayed:
                time.sleep(0.002)

        before_each_chunk(monkeypatch, hook)
        made_on = placing_states(monkeypatch)
        stack = haar_op(3, 2).mat[None]
        baseline = threading.active_count()
        got = _sample_entropies(stack, 5000, Spy(np.random.default_rng(3)))  # three chunks at d=3
        ref = sequential_entropies(stack, 3, 5000, np.random.default_rng(3))
        assert got.tobytes() == ref.tobytes()
        assert drawn_on == [threading.get_ident()] * 3
        assert len(evaluated_on) == 3 and len(set(evaluated_on)) == 1
        assert evaluated_on[0] != threading.get_ident()
        # the states are made once per chunk, on one of the two threads
        assert len(made_on) == 3
        assert set(made_on) <= {threading.get_ident(), evaluated_on[0]}
        assert threading.active_count() == baseline

    def test_concurrent_estimates_share_nothing(self):
        # more callers than cores, each with its own worker, switching threads
        # as often as the interpreter allows: each estimate keeps its own bits
        stack = _haar_stack(9, 2, np.random.default_rng(8))
        refs = [sequential_entropies(stack, 3, 5000, np.random.default_rng(s)) for s in range(4)]
        got = [None] * 4

        def estimate(s):
            got[s] = _sample_entropies(stack, 5000, np.random.default_rng(s))

        callers = [threading.Thread(target=estimate, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert [g.tobytes() for g in got] == [r.tobytes() for r in refs]

    def test_spread_is_taken_in_place_with_a_delayed_worker(self, monkeypatch):
        # the worker holds chunk i while the caller draws chunk i+1: the
        # bound of the undelayed test still holds
        before_each_chunk(monkeypatch, lambda: time.sleep(0.001))
        n = 1_000_000
        assert mc_peak_bytes(exp_swap(2, 0.7).mat[None], n) <= 8 * n + 2 * 2**20


class TestEntanglementReport:
    def test_swap_fields(self):
        report = entanglement_report(swap_op(2))
        assert report.d == 2
        assert report.unitarity_ok
        assert report.e_op == pytest.approx(0.75, abs=1e-14)
        assert report.e_op_swapped == pytest.approx(0.0, abs=1e-14)
        assert report.e_op_swapped_right == pytest.approx(0.0, abs=1e-14)
        assert report.e_swap == 0.75
        assert report.e_power == pytest.approx(0.0, abs=1e-14)

    def test_identity_fields(self):
        report = entanglement_report(BipartiteOperator(3, np.eye(9)))
        assert report.e_op == pytest.approx(0.0, abs=1e-14)
        assert report.e_op_swapped == pytest.approx(8 / 9, abs=1e-14)
        assert report.e_power == pytest.approx(0.0, abs=1e-14)

    def test_sqrt_swap_fields(self):
        report = entanglement_report(exp_swap(2, math.pi / 4))
        assert report.e_op == pytest.approx(9 / 16, abs=1e-12)
        assert report.e_op_swapped == pytest.approx(9 / 16, abs=1e-12)
        assert report.e_power == pytest.approx(1 / 6, abs=1e-12)

    def test_matches_individual_functions(self):
        u = haar_op(2, 571)
        report = entanglement_report(u)
        assert report.unitarity_defect == unitarity_defect(u.mat)
        assert report.e_op == operator_entanglement(u)
        assert report.e_op_swapped == swapped_operator_entanglement(u)
        assert report.e_power == entangling_power(u)

    def test_non_unitary_input_reported_not_raised(self):
        bad = BipartiteOperator(2, 1.5 * swap_op(2).mat)
        report = entanglement_report(bad)
        assert not report.unitarity_ok
        assert report.unitarity_defect == 1.25
        assert report.e_power is None
        assert isinstance(report.e_op, float)
        assert isinstance(report.e_op_swapped, float)

    def test_huge_finite_entries_reported_without_warning(self):
        # the Gram products overflow: recorded as a failed gate, and no RuntimeWarning
        report = entanglement_report(BipartiteOperator(2, 1e200 * np.eye(4)))
        assert not report.unitarity_ok
        assert report.unitarity_defect == math.inf
        assert report.e_power is None

    @pytest.mark.parametrize("mat, defect", [
        (1e200 * np.eye(4), math.inf),
        # entries 1e200 (1 + i) overflow to inf - inf in U^dag U
        (1e200 * (1 + 1j) * np.kron([[1, 1], [1, -1]], np.eye(2)), math.nan),
    ], ids=["inf defect", "nan defect"])
    def test_failed_gate_recorded_without_warning(self, monkeypatch, mat, defect):
        # any numpy warning fails the test (pyproject's filterwarnings)
        gate, tols = entpow.entanglement._gate, []

        def spy(stack, tol):
            tols.append(tol)
            return gate(stack, tol)

        monkeypatch.setattr(entpow.entanglement, "_gate", spy)
        report = entanglement_report(BipartiteOperator(2, mat), tol=0.5)
        assert tols == [0.5]
        assert not report.unitarity_ok and report.e_power is None
        np.testing.assert_equal(report.unitarity_defect, defect)

    def test_report_values_are_raw(self):
        # fields must come from the same raw formulas, not clamped copies
        u = haar_op(3, 581)
        report = entanglement_report(u)
        combined = (3 / 4) ** 2 * (report.e_op + report.e_op_swapped - report.e_swap)
        assert abs(report.e_power - combined) <= 1e-12
