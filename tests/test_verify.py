"""Tests for the stacked evaluation behind the per-operator criteria of
``entpow.verify``: stack splits, agreement with the scalar API, bitwise
comparisons and the unitarity gate inside a stack."""

import numpy as np
import pytest

import entpow.sweep
import entpow.verify
from entpow.entanglement import UnitarityError, entangling_power, operator_entanglement
from entpow.rearrange import BipartiteOperator
from entpow.verify import _new_run

BATCHED = {
    "controlled_u_theorem": entpow.verify._controlled_u,
    "fan_identity_bitwise": entpow.verify._fan_identity,
    "structural_involutions": entpow.verify._structural,
    "local_unitary_invariance": entpow.verify._local_invariance,
}


@pytest.fixture(scope="module")
def run():
    # d = 5 splits into stacks of 6 operators at the default budget, the last one partial
    return _new_run(extra_d=5, mc_samples=2000, seed=1)


@pytest.mark.parametrize("key", BATCHED)
def test_worst_does_not_depend_on_stack_size(monkeypatch, run, key):
    worst = BATCHED[key]
    reference = worst(run)
    for budget in (1, 10**9):  # one operator per stack, one stack per dimension
        monkeypatch.setattr(entpow.sweep, "_CHUNK_BYTES", budget)
        assert worst(run) == reference


@pytest.mark.parametrize("key", ["controlled_u_theorem", "local_unitary_invariance"])
def test_batched_measures_equal_the_scalar_api(monkeypatch, run, key):
    # record every stack a criterion evaluates, with the measures it got
    seen = []
    measures = entpow.verify._measures

    def recording(stack, d):
        e, e_swapped, e_p = measures(stack, d)
        seen.append((stack.copy(), d, e, e_p))
        return e, e_swapped, e_p

    monkeypatch.setattr(entpow.verify, "_measures", recording)
    BATCHED[key](run)
    assert {d for _, d, _, _ in seen} == {2, 3, 5}
    for stack, d, es, e_ps in seen:
        for m, e, e_p in zip(stack, es, e_ps):
            u = BipartiteOperator(d, m)
            assert abs(e - operator_entanglement(u)) <= 1e-15
            assert abs(e_p - entangling_power(u)) <= 1e-15


def test_structural_involutions_see_signed_zeros(monkeypatch, run):
    rearrange = entpow.verify._rearrange

    def adds_zero(stack, d, move):
        moved = rearrange(stack, d, move)
        if move == "realign":
            moved[0] += 0.0  # -0.0 becomes 0.0; no value changes
        return moved

    assert entpow.verify._structural(run) == 0
    monkeypatch.setattr(entpow.verify, "_rearrange", adds_zero)
    assert entpow.verify._structural(run) >= 1


@pytest.mark.parametrize("key, draw", [
    ("controlled_u_theorem", "_random_controlled_u_stack"),
    ("local_unitary_invariance", "_haar_stack"),
])
def test_non_unitary_operator_inside_a_stack_is_gated(monkeypatch, run, key, draw):
    original = getattr(entpow.verify, draw)

    def one_scaled(m, n, rng):
        stack = original(m, n, rng)
        # operators only: the local factors of local invariance are d x d
        if stack.shape[-1] == 4 and n > 2:
            stack[2] *= 1.5
        return stack

    monkeypatch.setattr(entpow.verify, draw, one_scaled)
    with pytest.raises(UnitarityError) as err:
        BATCHED[key](run)
    # its own defect: (1.5 U)^dag (1.5 U) - I = 1.25 I
    assert err.value.defect == pytest.approx(1.25, abs=1e-12)
