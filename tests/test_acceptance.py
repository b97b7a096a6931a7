"""Acceptance suite: the ten criteria of ``entpow.verify.CRITERIA``.

One test per table entry, at the default dimensions with 50k Monte-Carlo
samples, on the generator ``entpow verify --seed 1`` gives that entry.  Each
prints one PASS/FAIL line (echoed in the terminal summary by ``conftest.py``)
and asserts against the bound written out below, not the table's own, so a
bound loosened in the table fails here.
"""

from entpow.verify import CRITERIA, _new_run, _worst

BOUNDS = {
    "swap_operator_values": 1e-12,
    "swap_family_closed_forms": 1e-12,
    "sqrt_swap_extremes": 1e-12,
    "controlled_u_theorem": 1e-12,
    "cnot_values": 1e-12,
    "fan_identity_bitwise": 0,
    "structural_involutions": 0,
    "monte_carlo_oracle": 1.0,
    "local_unitary_invariance": 1e-10,
    "determinism": 0,
}

RUN = _new_run(extra_d=None, mc_samples=50_000, seed=1)

RESULTS = []


def test_table_bounds_are_the_literal_bounds():
    assert {key: bound for key, _, bound, _ in CRITERIA} == BOUNDS


def _criterion_test(k, key, title, bound):
    def test():
        value = _worst(RUN, k)
        passed = value <= BOUNDS[key] and bound == BOUNDS[key]
        line = (f"{'PASS' if passed else 'FAIL'}  {title.format(**vars(RUN))}"
                f"  [worst {value:.3g} <= {BOUNDS[key]:g}]")
        RESULTS.append(line)
        print(line)
        assert passed, line

    return test


# one named test per entry, in table order (test_01_swap_operator_values, ...),
# so each criterion keeps a stable test id
for _k, _entry in enumerate(CRITERIA):
    globals()[f"test_{_k + 1:02d}_{_entry[0]}"] = _criterion_test(_k, *_entry[:3])
