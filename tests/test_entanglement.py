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

import math

import numpy as np
import pytest

from entpow.densemat import unitarity_defect
from entpow.entanglement import (
    EntanglementReport,
    McEstimate,
    NormalizationError,
    UnitarityError,
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
    controlled_u,
    exp_swap,
    haar_unitary,
    identity_op,
    max_entangled_projector,
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_is_zero(self, d):
        assert operator_entanglement(identity_op(d)) == pytest.approx(0.0, abs=1e-14)

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
        mat = (1.0 + 2e-7) * haar_unitary(4, 55)
        op = BipartiteOperator(2, mat)
        with pytest.raises(UnitarityError):
            operator_entanglement(op)
        operator_entanglement(op, tol=1e-3)  # must not raise


class TestTolerance:
    ONES = BipartiteOperator(2, np.ones((4, 4)))  # defect 4

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
    @pytest.mark.parametrize(
        "measure",
        [operator_entanglement, swapped_operator_entanglement, entangling_power,
         entanglement_report],
    )
    def test_rejected_before_any_value(self, measure, tol):
        with pytest.raises(ValueError, match="finite and nonnegative") as err:
            measure(self.ONES, tol=tol)
        assert not isinstance(err.value, UnitarityError)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejected_by_monte_carlo(self, tol):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            entangling_power_mc(self.ONES, 500, seed=1, tol=tol)

    def test_zero_tolerance_accepts_exact_unitaries(self):
        assert operator_entanglement(swap_op(2), tol=0.0) == pytest.approx(0.75, abs=1e-15)


class TestSwappedOperatorEntanglement:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_reaches_maximum(self, d):
        got = swapped_operator_entanglement(identity_op(d))
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
        assert entangling_power(identity_op(3)) == pytest.approx(0.0, abs=1e-14)

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
            entangling_power(BipartiteOperator(2, 2 * max_entangled_projector(2).mat))

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
        with pytest.raises(ValueError, match="at least 100"):
            entangling_power_mc(CNOT, 99, seed=1)

    def test_non_unitary_rejected(self):
        bad = BipartiteOperator(2, 2.0 * np.eye(4, dtype=complex))
        with pytest.raises(UnitarityError):
            entangling_power_mc(bad, 500, seed=1)

    def test_statistics_wiring(self):
        # mean and stderr must be exactly those of the sampled entropies
        u = exp_swap(2, 0.7)
        est = entangling_power_mc(u, 500, seed=123)
        entropies = _sample_entropies(u, 500, np.random.default_rng(123))
        assert est.mean == float(entropies.mean())
        assert est.stderr == float(entropies.std(ddof=1)) / math.sqrt(500)

    @pytest.mark.parametrize("op", [identity_op(2), swap_op(3)])
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
        report = entanglement_report(identity_op(3))
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

    def test_report_values_are_raw(self):
        # fields must come from the same raw formulas, not clamped copies
        u = haar_op(3, 581)
        report = entanglement_report(u)
        combined = (3 / 4) ** 2 * (report.e_op + report.e_op_swapped - report.e_swap)
        assert abs(report.e_power - combined) <= 1e-12
