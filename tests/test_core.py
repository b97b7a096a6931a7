"""Tests for the batched purity core: stacked samplers, the stack gate and
chunked sweeps, each checked against the scalar path it replaces."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entpow.densemat
import entpow.sweep
from entpow.densemat import _MAX_D
from entpow.entanglement import (
    UnitarityError,
    _gate,
    _measures,
    entangling_power,
    operator_entanglement,
    swapped_operator_entanglement,
)
from entpow.operators import (
    ControlledUSpec,
    _controlled_u_stack,
    _gram_schmidt,
    _haar_stack,
    controlled_u,
    exp_swap,
    haar_unitary,
)
from entpow.rearrange import BipartiteOperator
from entpow.sweep import _MAX_STEPS, FAMILIES, SweepSpec, render_csv, sweep_rows

DIMS = [1, 2, 3, 4, 9, 16]
SEEDS = [0, 1, 7, 20070209, 2**64 - 1]


def chunk_rows(d):
    """Rows per chunk at the default budget."""
    return max(1, entpow.densemat._STACK_BYTES // (16 * d**4))


def count_stacks(monkeypatch):
    """A list that gets one entry for each stack a sweep evaluates."""
    stacks = []
    measures = entpow.sweep._measures

    def counting(stack):
        stacks.append(len(stack))
        return measures(stack)

    monkeypatch.setattr(entpow.sweep, "_measures", counting)
    return stacks


def ginibre(m, rng):
    """One Ginibre matrix from ``rng``: real parts, then imaginary parts."""
    g = rng.standard_normal((2, m, m))
    return (g[0] + 1j * g[1]) / math.sqrt(2.0)


def phase_fixed_qr(z):
    """numpy's QR of one matrix, with R's diagonal phases moved into Q."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))[None, :]


def haar_reference(m, rng):
    """One Haar unitary from ``rng`` by the documented route, one matrix at a
    time: Gram-Schmidt up to side 3, numpy's QR and the phase fix above."""
    z = ginibre(m, rng)
    return _gram_schmidt(z[None])[0] if m <= 3 else phase_fixed_qr(z)


def scalar_operator(spec, t, rng):
    """The next row of a sweep, built one operator at a time from ``rng``."""
    d = spec.d
    if spec.family == "exp_swap":
        return exp_swap(d, t)
    if spec.family == "haar":
        return BipartiteOperator(d, haar_reference(d * d, rng))
    blocks = tuple(haar_reference(d, rng) for _ in range(d))
    return controlled_u(ControlledUSpec(d, blocks))


class TestHaarStack:
    @pytest.mark.parametrize("m", DIMS)
    def test_equals_per_seed_draws_bitwise(self, m):
        # the stack equals the reference drawn one matrix at a time
        for seed in SEEDS:
            stack = _haar_stack(m, 12, np.random.default_rng(seed))
            assert stack.shape == (12, m, m)
            rng = np.random.default_rng(seed)
            for k in range(12):
                assert stack[k].tobytes() == haar_reference(m, rng).tobytes()

    @pytest.mark.parametrize("m", DIMS)
    def test_split_draws_equal_one_draw_bitwise(self, m):
        one = _haar_stack(m, 20, np.random.default_rng(100 + m))
        rng = np.random.default_rng(100 + m)
        parts = [_haar_stack(m, n, rng) for n in (1, 7, 12)]
        assert np.concatenate(parts).tobytes() == one.tobytes()

    @pytest.mark.parametrize("m", DIMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_haar_unitary_pins_the_draw_order(self, m, seed):
        want = haar_reference(m, np.random.default_rng(seed))
        assert haar_unitary(m, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gram_schmidt_is_the_phase_fixed_qr(self, m):
        # checked against LAPACK, not against the helper: the factor numpy's
        # QR gives, unitary, and with Q^H Z upper triangular, diagonal positive
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            z = np.stack([ginibre(m, rng) for _ in range(12)])
            q = _haar_stack(m, 12, np.random.default_rng(seed))
            for k in range(12):
                assert np.max(np.abs(q[k] - phase_fixed_qr(z[k]))) <= 1e-14
            assert np.all(entpow.densemat._unitarity_defects(q) <= 1e-14)
            r = np.conj(q.transpose(0, 2, 1)) @ z
            assert np.max(np.abs(np.tril(r, -1))) <= 1e-14
            diag = np.diagonal(r, axis1=1, axis2=2)
            assert np.max(np.abs(diag.imag)) <= 1e-14 and np.all(diag.real > 0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_gram_schmidt_error_is_rounding_times_the_condition(self, m):
        # the two factorisations differ by rounding amplified by cond(Z),
        # which a large stack makes large for a few matrices
        rng = np.random.default_rng([2007, m])
        z = np.stack([ginibre(m, rng) for _ in range(2000)])
        q = _gram_schmidt(z)
        diff = np.max(np.abs(q - np.stack(list(map(phase_fixed_qr, z)))), (1, 2))
        assert np.all(diff <= 8 * np.finfo(float).eps * np.linalg.cond(z))
        assert np.all(entpow.densemat._unitarity_defects(q) <= 1e-15)

    def test_controlled_stack_equals_controlled_u(self):
        d = 3
        blocks = _haar_stack(d, 6, np.random.default_rng(11)).reshape(2, d, d, d)
        stack = _controlled_u_stack(blocks)
        for k in range(2):
            gate = controlled_u(ControlledUSpec(d, tuple(blocks[k])))
            assert np.array_equal(stack[k], gate.mat)


def z_score(values: np.ndarray, expected: float) -> float:
    """How far the mean of ``values`` is from ``expected``, in sample standard errors."""
    return (values.mean() - expected) / (values.std(ddof=1) / math.sqrt(len(values)))


class TestHaarMoments:
    """Statistical oracle for the sampler: moments of Haar measure on U(m)
    (Mezzadri, Notices AMS 54, 592 (2007)) and the Haar averages of E and e_p
    (Zanardi, Zalka & Faoro, PRA 62, 030301(R) (2000)), each within 5 sample
    standard errors of fixed-seed draws."""

    @pytest.mark.parametrize("m", [2, 3, 4, 9, 16])
    def test_entry_moments(self, m):
        u = _haar_stack(m, 2000, np.random.default_rng([2007, m]))
        # Re U_00 is symmetric about 0; a QR without the phase fix skews it
        assert abs(z_score(u[:, 0, 0].real, 0.0)) <= 5
        # E|U_ij|^4 = 2/(m(m+1)) for every entry; a real orthogonal U gives 3/(m(m+2))
        assert abs(z_score((np.abs(u) ** 4).mean(axis=(1, 2)), 2 / (m * (m + 1)))) <= 5

    def test_mean_measures_at_d2(self):
        d = 2
        e, _, e_p = _measures(_haar_stack(d * d, 20000, np.random.default_rng([2000, d])))
        assert abs(z_score(e, (d * d - 1) / (d * d + 1))) <= 5
        assert abs(z_score(e_p, (d - 1) ** 2 / (d * d + 1))) <= 5


class TestGate:
    def test_non_unitary_inside_stack_carries_its_own_defect(self):
        good = haar_unitary(4, 3)
        stack = np.stack([good, 1.5 * good, good, 2.0 * good])
        with pytest.raises(UnitarityError) as err:
            _gate(stack, 1e-9)
        # the first failing operator is 1.5 U, whose defect is 1.5^2 - 1
        assert err.value.defect == pytest.approx(1.25, abs=1e-12)
        assert err.value.tol == 1e-9

    @pytest.mark.parametrize("bad", [[0], [2], [1, 3], [3]])
    def test_index_is_the_first_failing_matrix(self, bad):
        stack = np.stack([haar_unitary(4, s) for s in range(4)])
        stack[bad] *= 2.0
        with pytest.raises(UnitarityError) as err:
            _gate(stack, 1e-9)
        assert err.value.index == bad[0]
        assert err.value.defect == pytest.approx(3.0, abs=1e-12)

    def test_the_gate_and_its_error_live_in_densemat(self):
        assert UnitarityError is entpow.UnitarityError is entpow.densemat.UnitarityError
        assert UnitarityError.__module__ == "entpow.densemat"
        assert _gate is entpow.densemat._gate

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

    @pytest.mark.parametrize("tol, message", [
        (math.nan, "must be a finite number, got nan"),
        (math.inf, "must be a finite number, got inf"),
        (-math.inf, "must be a finite number, got -inf"),
        (-1.0, "must be nonnegative, got -1.0"),
        (None, "must be a finite number, got None"),
        ("1e-9", "must be a finite number, got '1e-9'"),
        (True, "must be a finite number, got True"),
        (10**400, "must be a finite number, got 100000000000... (401 characters)"),
    ], ids=["nan", "inf", "-inf", "-1.0", "None", "1e-9", "True", "10**400"])
    def test_rejects_bad_tolerance(self, tol, message):
        with pytest.raises(ValueError, match=f"^unitarity tolerance {re.escape(message)}$"):
            _gate(np.eye(4, dtype=complex)[None], tol)


class TestChunkedSweep:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_equal_scalar_measures(self, family, d):
        steps = 2 * chunk_rows(d) + 3  # three chunks, the last one partial
        spec = SweepSpec(family, d, 0.0, math.pi, steps, seed=41)
        rng = np.random.default_rng(spec.seed)
        rows = sweep_rows(spec)
        assert len(rows) == steps
        for t, e, e_s, e_p in rows:
            u = scalar_operator(spec, t, rng)
            assert abs(e - operator_entanglement(u)) <= 1e-15
            assert abs(e_s - swapped_operator_entanglement(u)) <= 1e-15
            assert abs(e_p - entangling_power(u)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_do_not_depend_on_chunking(self, monkeypatch, family, d):
        spec = SweepSpec(family, d, 0.0, math.pi, 23, seed=5)
        reference = sweep_rows(spec)
        stacks = count_stacks(monkeypatch)
        # one row, seven rows, one chunk: 23, 4 and 1 stacks
        for budget, n_stacks in ((1, 23), (7 * 16 * d**4, 4), (10**9, 1)):
            stacks.clear()
            monkeypatch.setattr(entpow.densemat, "_STACK_BYTES", budget)
            assert sweep_rows(spec) == reference
            # the patch reached the sweep: a budget that was not read fails here
            assert len(stacks) == n_stacks

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_gate_per_random_controlled_u_stack(self, monkeypatch, d):
        shapes = []
        defects = entpow.densemat._unitarity_defects

        def counting(stack):
            shapes.append(stack.shape)
            return defects(stack)

        monkeypatch.setattr(entpow.densemat, "_unitarity_defects", counting)
        steps = 2 * chunk_rows(d) + 3  # three chunks, the last one partial
        sweep_rows(SweepSpec("controlled_u_random", d, 0.0, 1.0, steps))
        # one defect pass per chunk, over the assembled operators, none over blocks
        assert shapes == [(n, d * d, d * d) for n in (chunk_rows(d), chunk_rows(d), 3)]

    def test_default_chunk_sizes(self):
        assert [chunk_rows(d) for d in (2, 3, 4, 8, 16)] == [256, 50, 16, 1, 1]


class TestSweepRange:
    """Every row's measures lie in their ranges: 0 <= E, E(S12 U) <= 1 - 1/d^2
    and 0 <= e_p <= (d - 1)/(d + 1), up to rounding."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=15, deadline=None)
    @given(steps=st.integers(1, 40), seed=st.integers(0, 2**64 - 1),
           start=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e3))
    def test_rows_stay_in_range(self, family, d, steps, seed, start, width):
        rows = sweep_rows(SweepSpec(family, d, start, start + width, steps, seed))
        assert len(rows) == steps
        e_max, p_max = 1 - 1 / d**2, (d - 1) / (d + 1)
        for _, e, e_swapped, e_p in rows:
            assert -1e-12 <= e <= e_max + 1e-12
            assert -1e-12 <= e_swapped <= e_max + 1e-12
            assert -1e-12 <= e_p <= p_max + 1e-12


class TestSweepSeed:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_out_of_range_rejected(self, seed):
        message = f"seed must be an integer from 0 to 18446744073709551615, got {seed}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec("haar", 2, 0.0, 1.0, 3, seed=seed)

    # shown by repr: a string with its quotes, a NumPy float as its Python value
    @pytest.mark.parametrize("seed, shown", [(None, "None"), (True, "True"), (1.0, "1.0"),
                                             ("1", "'1'"), (np.float64(1), "1.0")],
                             ids=["None", "True", "1.0_0", "1", "1.0_1"])
    def test_non_integer_rejected(self, seed, shown):
        message = f"seed must be an integer from 0 to 18446744073709551615, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec("haar", 2, 0.0, 1.0, 3, seed=seed)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        spec = SweepSpec("haar", np.int64(2), np.float32(0), 1, np.int64(3), seed=np.uint64(7))
        plain = SweepSpec("haar", 2, 0.0, 1.0, 3, seed=7)
        assert [type(v) for v in vars(spec).values()] == [str, int, float, float, int, int]
        assert repr(spec) == repr(plain)
        assert render_csv(sweep_rows(spec)) == render_csv(sweep_rows(plain))

    def test_largest_seed_accepted(self):
        spec = SweepSpec("haar", 2, 0.0, 1.0, 3, seed=2**64 - 1)
        assert len(sweep_rows(spec)) == 3


class TestSweepSizeBounds:
    # construction only: nothing of these sizes is allocated
    def test_dimension_cap(self):
        assert SweepSpec("haar", _MAX_D, 0.0, 1.0, 3).d == 16
        with pytest.raises(ValueError, match="from 2 to 16"):
            SweepSpec("haar", _MAX_D + 1, 0.0, 1.0, 3)

    @pytest.mark.parametrize("d", [np.int64(3), np.int32(3)])
    def test_numpy_integer_dimension_accepted(self, d):
        spec = SweepSpec("haar", d, 0.0, 1.0, 3)
        assert spec.d == 3 and type(spec.d) is int
        assert sweep_rows(spec) == sweep_rows(SweepSpec("haar", 3, 0.0, 1.0, 3))

    @pytest.mark.parametrize("d", [1, True, 3.0, "3", None])
    def test_dimension_must_be_an_integer(self, d):
        with pytest.raises(ValueError, match="from 2 to 16"):
            SweepSpec("haar", d, 0.0, 1.0, 3)

    def test_steps_cap(self):
        assert SweepSpec("haar", 2, 0.0, 1.0, _MAX_STEPS).steps == 1_000_000
        with pytest.raises(ValueError, match="from 1 to 1000000"):
            SweepSpec("haar", 2, 0.0, 1.0, _MAX_STEPS + 1)

    @pytest.mark.parametrize("steps", [True, 3.0, "3", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match="from 1 to 1000000"):
            SweepSpec("haar", 2, 0.0, 1.0, steps)

    @pytest.mark.parametrize("bad, shown", [
        ("0", "'0'"), (None, "None"), (math.nan, "nan"), (-math.inf, "-inf"), ([0.0], "[0.0]"),
        (True, "True"), (10**400, "100000000000... (401 characters)"),
    ], ids=["0", "None", "nan", "-inf", "bad4", "True", "10**400"])
    def test_parameter_range_must_be_finite_numbers(self, bad, shown):
        for start, end, name in ((bad, 1.0, "param_start"), (0.0, bad, "param_end")):
            message = f"{name} must be a finite number, got {shown}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SweepSpec("haar", 2, start, end, 3)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("start, end", [
        (-1.7e308, 1.7e308),
        (-np.finfo(float).max, np.float64(1e300)),
    ])
    def test_parameter_range_width_must_be_finite(self, family, start, end):
        # finite endpoints whose difference overflows: rejected before any
        # NumPy arithmetic can warn
        with pytest.raises(ValueError, match="parameter range must be finite"):
            SweepSpec(family, 2, start, end, 3)

    def test_widest_finite_parameter_range_accepted(self):
        big = np.finfo(float).max
        rows = sweep_rows(SweepSpec("haar", 2, -big / 2, big / 2, 3))
        assert [row[0] for row in rows] == [-big / 2, 0.0, big / 2]
