"""Tests for the batched purity core: stacked samplers, the stack gate and
chunked sweeps, each checked against the scalar path it replaces."""

import math

import numpy as np
import pytest

import entpow.sweep
from entpow.entanglement import (
    UnitarityError,
    _gate,
    entangling_power,
    operator_entanglement,
    swapped_operator_entanglement,
)
from entpow.operators import (
    ControlledUSpec,
    _controlled_u_stack,
    _haar_stack,
    controlled_u,
    exp_swap,
    haar_unitary,
)
from entpow.rearrange import BipartiteOperator
from entpow.sweep import FAMILIES, SweepSpec, _child_seeds, sweep_rows


def chunk_rows(d):
    """Rows per chunk at the default budget."""
    return max(1, entpow.sweep._CHUNK_BYTES // (16 * d**4))


def scalar_operator(spec, k, t, seeds):
    """Row k of a sweep, built one operator at a time through the public API."""
    d = spec.d
    if spec.family == "exp_swap":
        return exp_swap(d, t)
    if spec.family == "haar":
        return BipartiteOperator(d, haar_unitary(d * d, seeds[k]))
    blocks = tuple(haar_unitary(d, seeds[k * d + n]) for n in range(d))
    return controlled_u(ControlledUSpec(d, blocks))


class TestHaarStack:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 9, 16])
    def test_equals_per_seed_draws_bitwise(self, m):
        seeds = np.random.SeedSequence(m).generate_state(12, dtype=np.uint64).tolist()
        stack = _haar_stack(m, seeds)
        assert stack.shape == (12, m, m)
        for k, seed in enumerate(seeds):
            assert np.array_equal(stack[k], haar_unitary(m, seed))

    def test_controlled_stack_equals_controlled_u(self):
        d = 3
        blocks = _haar_stack(d, [11, 12, 13, 14, 15, 16]).reshape(2, d, d, d)
        stack = _controlled_u_stack(blocks)
        for k in range(2):
            gate = controlled_u(ControlledUSpec(d, tuple(blocks[k])))
            assert np.array_equal(stack[k], gate.mat)


class TestGate:
    def test_non_unitary_inside_stack_carries_its_own_defect(self):
        good = haar_unitary(4, 3)
        stack = np.stack([good, 1.5 * good, good, 2.0 * good])
        with pytest.raises(UnitarityError) as err:
            _gate(stack, 1e-9)
        # the first failing operator is 1.5 U, whose defect is 1.5^2 - 1
        assert err.value.defect == pytest.approx(1.25, abs=1e-12)
        assert err.value.tol == 1e-9

    def test_returns_defects_of_a_passing_stack(self):
        stack = np.stack([haar_unitary(4, s) for s in range(5)])
        defects = _gate(stack, 1e-9)
        assert defects.shape == (5,)
        assert np.all(defects <= 1e-12)

    def test_non_finite_entries_never_pass(self):
        stack = np.stack([np.eye(4, dtype=complex)] * 2)
        stack[1, 0, 0] = np.nan
        with pytest.raises(UnitarityError):
            _gate(stack, 1e9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _gate(np.eye(4, dtype=complex)[None], tol)


class TestChunkedSweep:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_equal_scalar_measures(self, family, d):
        steps = 2 * chunk_rows(d) + 3  # three chunks, the last one partial
        spec = SweepSpec(family, d, 0.0, math.pi, steps, seed=41)
        seeds = _child_seeds(spec).tolist()
        rows = sweep_rows(spec)
        assert len(rows) == steps
        for k, (t, e, e_s, e_p) in enumerate(rows):
            u = scalar_operator(spec, k, t, seeds)
            assert abs(e - operator_entanglement(u)) <= 1e-15
            assert abs(e_s - swapped_operator_entanglement(u)) <= 1e-15
            assert abs(e_p - entangling_power(u)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_do_not_depend_on_chunking(self, monkeypatch, family, d):
        spec = SweepSpec(family, d, 0.0, math.pi, 23, seed=5)
        reference = sweep_rows(spec)
        for budget in (1, 7 * 16 * d**4, 10**9):  # one row, seven rows, one chunk
            monkeypatch.setattr(entpow.sweep, "_CHUNK_BYTES", budget)
            assert sweep_rows(spec) == reference

    def test_default_chunk_sizes(self):
        assert [chunk_rows(d) for d in (2, 3, 4, 8, 16)] == [256, 50, 16, 1, 1]


class TestSweepSeed:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            SweepSpec("haar", 2, 0.0, 1.0, 3, seed=seed)

    def test_largest_seed_accepted(self):
        spec = SweepSpec("haar", 2, 0.0, 1.0, 3, seed=2**64 - 1)
        assert len(sweep_rows(spec)) == 3
