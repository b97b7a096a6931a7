"""Tests for the stacked evaluation behind the per-operator criteria of
``entpow.verify``: stack splits, agreement with the scalar API, bitwise
comparisons and the unitarity gate inside a stack; for its seed tree,
which gives criterion k the generator ``[seed, k]``; for the run, which
``_new_run`` makes whole and criteria only read; and for the counts its
titles name, which must be the counts the criteria evaluate."""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entpow.densemat
import entpow.entanglement
import entpow.verify
from entpow.entanglement import UnitarityError, entangling_power, operator_entanglement
from entpow.rearrange import BipartiteOperator
from entpow.verify import CRITERIA, _new_run, _worst, run_acceptance

# each criterion's row in the table, which also names its generator
ROW = {key: k for k, (key, *_) in enumerate(CRITERIA)}

BATCHED = ["controlled_u_theorem", "fan_identity_bitwise", "structural_involutions",
           "local_unitary_invariance"]

# the module constant behind the count each of these titles names
COUNTS = {"controlled_u_theorem": "_CONTROLLED_U_GATES", "fan_identity_bitwise": "_FAN_MATRICES",
          "structural_involutions": "_STRUCTURAL_MATRICES",
          "local_unitary_invariance": "_LOCAL_TUPLES", "monte_carlo_oracle": "_MC_HAAR"}


@pytest.fixture(scope="module")
def run():
    # d = 5 splits into stacks of 6 operators at the default budget, the last one partial
    return _new_run(extra_d=5, mc_samples=2000, seed=1)


@pytest.mark.parametrize("key", BATCHED)
def test_worst_does_not_depend_on_stack_size(monkeypatch, run, key):
    # record every stack bound the criterion gets from the one stack cutter
    stacks = []
    stack_spans = entpow.verify._stack_spans

    def recording(n, d):
        got = list(stack_spans(n, d))
        stacks.extend(got)
        return got

    monkeypatch.setattr(entpow.verify, "_stack_spans", recording)
    reference = _worst(run, ROW[key])
    default = len(stacks)
    for budget in (1, 10**9):  # one operator per stack, one stack per dimension
        stacks.clear()
        monkeypatch.setattr(entpow.densemat, "_STACK_BYTES", budget)
        assert _worst(run, ROW[key]) == reference
        # the patch reached the criterion: a budget that was not read fails here
        assert len(stacks) != default


@pytest.mark.parametrize("key", ["controlled_u_theorem", "local_unitary_invariance"])
def test_batched_measures_equal_the_scalar_api(monkeypatch, run, key):
    # record every stack a criterion evaluates, with the measures it got
    seen = []
    measures = entpow.verify._measures

    def recording(stack):
        e, e_swapped, e_p = measures(stack)
        seen.append((stack.copy(), math.isqrt(stack.shape[-1]), e, e_p))
        return e, e_swapped, e_p

    monkeypatch.setattr(entpow.verify, "_measures", recording)
    _worst(run, ROW[key])
    assert {d for _, d, _, _ in seen} == {2, 3, 5}
    for stack, d, es, e_ps in seen:
        for m, e, e_p in zip(stack, es, e_ps):
            u = BipartiteOperator(d, m)
            assert abs(e - operator_entanglement(u)) <= 1e-15
            assert abs(e_p - entangling_power(u)) <= 1e-15


@pytest.mark.parametrize("key", ["fan_identity_bitwise", "structural_involutions"])
def test_structural_involutions_see_signed_zeros(monkeypatch, run, key):
    rearrange = entpow.verify._rearrange

    def adds_zero(stack, move):
        moved = rearrange(stack, move)
        if move == "realign":
            moved[0] += 0.0  # -0.0 becomes 0.0; no value changes
        return moved

    assert _worst(run, ROW[key]) == 0
    monkeypatch.setattr(entpow.verify, "_rearrange", adds_zero)
    assert _worst(run, ROW[key]) >= 1


def test_fan_identity_draws_no_haar_unitary(monkeypatch, run):
    # an index move holds for every matrix, so the criterion needs no QR
    def refuses(m, n, rng):
        raise AssertionError("a Haar unitary was drawn")

    monkeypatch.setattr(entpow.verify, "_haar_stack", refuses)
    assert _worst(run, ROW["fan_identity_bitwise"]) == 0


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
        _worst(run, ROW[key])
    # its own defect: (1.5 U)^dag (1.5 U) - I = 1.25 I
    assert err.value.defect == pytest.approx(1.25, abs=1e-12)


class Recording:
    """A generator that keeps a copy of every normal it draws."""

    def __init__(self, rng, kept):
        self.rng, self.kept = rng, kept

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        self.kept.append(z.ravel().copy())
        return z


def stacks_evaluated(monkeypatch, key, seed):
    """Every stack criterion ``key`` measures or rearranges at ``seed``, in call order."""
    seen = []
    with monkeypatch.context() as m:
        for name in ("_measures", "_rearrange"):
            def recording(stack, *args, original=getattr(entpow.verify, name)):
                seen.append(stack.copy())
                return original(stack, *args)

            m.setattr(entpow.verify, name, recording)
        _worst(_new_run(extra_d=None, mc_samples=2000, seed=seed), ROW[key])
    return seen


@pytest.mark.parametrize("key", BATCHED)
def test_the_seed_reaches_every_random_stack(monkeypatch, key):
    first, last = (stacks_evaluated(monkeypatch, key, seed) for seed in (1, 2**64 - 1))
    assert len(first) == len(last) > 0
    assert all(a.tobytes() != b.tobytes() for a, b in zip(first, last))
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(first, stacks_evaluated(monkeypatch, key, 1)))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_mc_streams_share_no_draw_with_the_oracle_operators(monkeypatch, seed):
    operator_draws, state_draws = [], []
    haar_stack, draw = entpow.verify._haar_stack, entpow.entanglement._draw_states
    monkeypatch.setattr(entpow.verify, "_haar_stack",
                        lambda m, n, rng: haar_stack(m, n, Recording(rng, operator_draws)))
    monkeypatch.setattr(entpow.entanglement, "_draw_states",
                        lambda rng, n, d: draw(Recording(rng, state_draws), n, d))
    _worst(_new_run(extra_d=None, mc_samples=100, seed=seed), ROW["monte_carlo_oracle"])
    operators, states = np.concatenate(operator_draws), np.concatenate(state_draws)
    assert (operators.size, states.size) == (5 * 2 * (4**2 + 9**2), 100 * 4 * (2 + 3))
    assert np.intersect1d(operators, states).size == 0


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_every_criterion_but_mc_passes_at_any_seed(seed):
    results = run_acceptance(seed=seed)
    assert len(results) == 9 and all(r.passed for r in results)


@pytest.mark.parametrize("key", ROW)
def test_criteria_only_read_the_run(key):
    run = _new_run(extra_d=5, mc_samples=2000, seed=1)
    before = copy.deepcopy(vars(run))
    _worst(run, ROW[key])
    after = vars(run)
    assert after.keys() == before.keys()
    assert all(after[name] == before[name] for name in before if name != "grids")
    assert after["grids"].keys() == before["grids"].keys()
    for d, grid in before["grids"].items():
        assert after["grids"][d].shape == grid.shape
        assert after["grids"][d].tobytes() == grid.tobytes()


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(entpow.verify._Run)])
def test_a_run_is_frozen(run, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(run, field, getattr(run, field))


def test_rows_give_the_same_values_in_any_order(run):
    in_order = [_worst(run, k) for k in range(len(CRITERIA))]
    reversed_order = [_worst(run, k) for k in reversed(range(len(CRITERIA)))][::-1]
    assert np.array(reversed_order).tobytes() == np.array(in_order).tobytes()


def operators_evaluated(monkeypatch, run, key) -> dict:
    """Operators per local dimension that criterion ``key`` hands to ``_measures``,
    ``_rearrange`` or ``_mc_estimates``, counting each stack once and never a
    stack that ``_rearrange`` returned."""
    seen, moved = {}, []  # both keep their stacks alive, so no id is reused
    with monkeypatch.context() as m:
        for name in ("_measures", "_rearrange", "_mc_estimates"):
            def recording(stack, *args, name=name, original=getattr(entpow.verify, name)):
                if not any(stack is x for x in moved):
                    seen[id(stack)] = stack, math.isqrt(stack.shape[-1])
                out = original(stack, *args)
                if name == "_rearrange":
                    moved.append(out)
                return out

            m.setattr(entpow.verify, name, recording)
        _worst(run, ROW[key])
    counts = {}
    for stack, d in seen.values():
        counts[d] = counts.get(d, 0) + len(stack)
    return counts


def evaluated_and_named(monkeypatch, run, key):
    """(operators criterion ``key`` evaluates, operators its title names): per
    local dimension of the title's dimension list for the batched criteria, in
    total for the Monte-Carlo oracle."""
    title = CRITERIA[ROW[key]][1]
    named = int(re.search(r"\((\d+) ", title).group(1))
    counts = operators_evaluated(monkeypatch, run, key)
    if key == "monte_carlo_oracle":
        return sum(counts.values()), named
    # a local-invariance tuple evaluates U and (A (x) B) U (C (x) D)
    per_item = 2 if key == "local_unitary_invariance" else 1
    dims = getattr(run, re.search(r"\{(\w+)\}", title).group(1))
    return counts, {d: per_item * named for d in dims}


@pytest.mark.parametrize("key", [*BATCHED, "monte_carlo_oracle"])
def test_titles_name_the_counts_evaluated(monkeypatch, run, key):
    evaluated, named = evaluated_and_named(monkeypatch, run, key)
    assert evaluated == named


@pytest.mark.parametrize("key", [*BATCHED, "monte_carlo_oracle"])
def test_the_title_count_guard_itself(monkeypatch, run, key):
    # a count changed after the titles were formatted: the criterion runs it, its title does not
    monkeypatch.setattr(entpow.verify, COUNTS[key], getattr(entpow.verify, COUNTS[key]) + 1)
    evaluated, named = evaluated_and_named(monkeypatch, run, key)
    assert evaluated != named
