"""Tests for the dense matrix kernel."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entpow.entanglement
import entpow.sweep
from entpow.densemat import (
    _check_int,
    _echo,
    _spans,
    as_complex_matrix,
    frobenius_norm_sq,
    unitarity_defect,
)
from entpow.entanglement import entangling_power_mc, entanglement_report, state_linear_entropy
from entpow.operators import (
    ControlledUSpec,
    _haar_stack,
    exp_swap,
    haar_unitary,
    max_entangled_projector,
    product_state_batch,
    swap_op,
)
from entpow.rearrange import BipartiteOperator
from entpow.sweep import SweepSpec, sweep_rows
from entpow.verify import run_acceptance


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm_sq(np.zeros((3, 3), dtype=complex)) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_norm_is_d(self, d):
        u = haar_unitary(d * d, seed=100 + d)
        assert frobenius_norm_sq(u) == pytest.approx(d * d, abs=1e-12)

    def test_rank_one_projector(self):
        assert frobenius_norm_sq(max_entangled_projector(3).mat) == pytest.approx(1, abs=1e-12)

    def test_squared_norm_equals_trace_form(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = random_complex(rng, 4, 4)
            via_trace = np.trace(a.conj().T @ a).real
            assert abs(frobenius_norm_sq(a) - via_trace) <= 1e-12

    def test_norm_sq_is_order_independent(self):
        rng = np.random.default_rng(15)
        a = random_complex(rng, 6, 6)
        shuffled = a.ravel().copy()
        rng.shuffle(shuffled)
        assert frobenius_norm_sq(a) == frobenius_norm_sq(shuffled.reshape(6, 6))


class TestUnitarityDefect:
    def test_identity(self):
        assert unitarity_defect(np.eye(4, dtype=complex)) == 0.0

    def test_swap(self):
        assert unitarity_defect(swap_op(4).mat) == 0.0

    def test_scaled_projector_is_not(self):
        d = 2
        assert unitarity_defect(d * max_entangled_projector(d).mat) > 0.9

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            unitarity_defect(np.zeros((2, 3), dtype=complex))

    def test_overflowing_products_give_an_infinite_defect_without_warning(self):
        assert unitarity_defect(1e200 * np.eye(4)) == np.inf


class TestValidation:
    @pytest.mark.parametrize("check, shape", [
        (as_complex_matrix, (2, 3)),
        (lambda m: BipartiteOperator(2, m), (4, 4)),
        (lambda m: ControlledUSpec(2, (np.eye(2), m)), (2, 2)),
    ], ids=["as_complex_matrix", "BipartiteOperator", "ControlledUSpec"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite(self, check, shape, value):
        # the first non-finite entry in row-major order is named
        bad = np.zeros(shape, dtype=complex)
        bad[1, 0] = value
        bad[-1, -1] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite entry at row 1, column 0$"):
            check(bad)

    @pytest.mark.parametrize("check", [
        lambda: as_complex_matrix([[object()]]),
        lambda: BipartiteOperator(2, {}),
        lambda: ControlledUSpec(2, (np.eye(2), [[{}, 0], [0, 1]])),
    ], ids=["as_complex_matrix", "BipartiteOperator", "ControlledUSpec"])
    def test_rejects_non_numeric(self, check):
        # numpy's own TypeError becomes the package's ValueError
        with pytest.raises(ValueError, match=r"^matrix entries must be numbers: "):
            check()

    @pytest.mark.parametrize("entries", [
        [["1", "2j"]],
        np.array([["1", "2"]]),
        [[b"1", b"0"]],
        np.array([[b"1"]]),
        np.array([[1, "2"]], dtype=object),
        [[np.str_("1")]],
        "1",
        [[1, None]],
        np.array([[None]]),
        None,
    ], ids=["str list", "str array", "bytes list", "bytes array", "object array", "np.str_",
            "bare str", "None in a list", "None array", "bare None"])
    def test_rejects_strings_and_bytes(self, entries):
        with pytest.raises(ValueError, match=r"^matrix entries must be numbers: "):
            as_complex_matrix(entries)

    @pytest.mark.parametrize("check", [
        lambda: BipartiteOperator(2, [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                      ["0", "0", "1", "0"], ["0", "0", "0", "1"]]),
        lambda: ControlledUSpec(2, (np.eye(2), np.array([["0", "1"], ["1", "0"]]))),
        lambda: BipartiteOperator(2, [[None] * 4] * 4),
        lambda: ControlledUSpec(2, (np.eye(2), [[None, 0], [0, 1]])),
    ], ids=["BipartiteOperator", "ControlledUSpec", "BipartiteOperator None",
            "ControlledUSpec None"])
    def test_operators_reject_strings(self, check):
        with pytest.raises(ValueError, match=r"^matrix entries must be numbers: "):
            check()

    @pytest.mark.parametrize("check", [
        lambda: as_complex_matrix([[10**400]]),
        lambda: BipartiteOperator(2, [[10**400, 0, 0, 0]] + np.eye(4)[1:].tolist()),
        lambda: ControlledUSpec(2, (np.eye(2), [[-(10**309), 0], [0, 1]])),
        lambda: state_linear_entropy([[10**400, 0], [0, 0]]),
    ], ids=["as_complex_matrix", "BipartiteOperator", "ControlledUSpec", "state_linear_entropy"])
    def test_rejects_integers_beyond_float_range(self, check):
        # numpy's OverflowError becomes the package's ValueError
        with pytest.raises(ValueError, match=r"^matrix entry is out of float range$"):
            check()

    def test_numeric_arrays_are_not_scanned(self, monkeypatch):
        # the eval path: a numeric ndarray goes straight to the conversion
        eye = np.eye(3, dtype=np.int8)
        monkeypatch.setattr(np, "asarray", None)
        m = as_complex_matrix(eye)
        assert m.dtype == np.complex128 and m[2, 2] == 1

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            as_complex_matrix(np.zeros(4, dtype=complex))
        # a scalar is reported as the 0-D data it is
        with pytest.raises(ValueError, match="got 0-D data"):
            as_complex_matrix(5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive"):
            as_complex_matrix(np.zeros((0, 3), dtype=complex))

    def test_accepts_real_input(self):
        m = as_complex_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m[1, 0] == 3


SWAP = swap_op(2)


class TestEcho:
    """Every input rule shows a rejected integer of more than 40 digits as
    its leading digits and digit count, in the rule's own message."""

    @pytest.mark.parametrize("digits", [401, 5001], ids=["10**400", "10**5000"])
    @pytest.mark.parametrize("call, message", [
        (swap_op, "local dimension must be an integer from 2 to 16"),
        (lambda x: exp_swap(2, x), "parameter t must be finite"),
        (lambda x: SweepSpec("haar", 2, 0.0, 1.0, x), "steps must be an integer from 1 to 1000000"),
        (lambda x: SweepSpec("haar", 2, x, 1.0, 3), "parameter range must be finite"),
        (lambda x: SweepSpec("haar", 2, 0.0, 1.0, 3, x),
         "seed must be an integer from 0 to 18446744073709551615"),
        (lambda x: entangling_power_mc(SWAP, x, 1),
         "number of samples must be an integer from 100 to 10000000"),
        (lambda x: entangling_power_mc(SWAP, -x, 1),
         "number of samples must be an integer from 100 to 10000000"),
        (lambda x: entangling_power_mc(SWAP, 500, x),
         "seed must be an integer from 0 to 18446744073709551615"),
        (lambda x: entanglement_report(SWAP, tol=x), "unitarity tolerance must be finite"),
        (lambda x: haar_unitary(x, 1), "dimension must be an integer from 1 to 256"),
        (lambda x: product_state_batch(np.random.default_rng(1), -x, 2),
         "number of states must be an integer from 0 to 10000000"),
        (lambda x: product_state_batch(np.random.default_rng(1), x, 2),
         "number of states must be an integer from 0 to 10000000"),
        (lambda x: run_acceptance(False, x), "local dimension must be an integer from 2 to 16"),
        (lambda x: SweepSpec(x, 2, 0.0, 1.0, 3), "unknown family"),
        (lambda x: ControlledUSpec(2, x), "controlled-U at local dimension 2 needs exactly 2"),
    ], ids=["swap_op", "exp_swap", "SweepSpec steps", "SweepSpec range", "SweepSpec seed",
            "mc samples", "mc samples below", "mc seed", "report tol", "haar_unitary",
            "product_state_batch", "product_state_batch above", "verify extra d",
            "SweepSpec family", "ControlledUSpec blocks"])
    def test_long_integers_are_shortened(self, call, message, digits):
        with pytest.raises(ValueError) as err:
            call(10 ** (digits - 1))
        text = str(err.value)
        assert text.startswith(message) and len(text) <= 100
        assert f"100000000000... ({digits} digits)" in text

    def test_the_param_start_rule_too(self):
        with pytest.raises(ValueError, match=r"^param_start 100000000000\.\.\. \(301 digits\) exc"):
            SweepSpec("haar", 2, 10**300, 0.0, 3)

    @pytest.mark.parametrize("x", [10**40 - 1, -(10**40 - 1), 2**64, np.int64(-5), 1.5, None])
    def test_forty_digits_or_fewer_are_echoed_unchanged(self, x):
        # a NumPy integer as its Python value, whatever numpy's repr
        assert _echo(x) == repr(int(x) if isinstance(x, np.integer) else x)

    @pytest.mark.parametrize("x, shown", [
        ("3", "'3'"), ("1e-9", "'1e-9'"), (np.float64(1e-9), "1e-09"), (np.float64("nan"), "nan"),
        (np.uint64(2**64 - 1), "18446744073709551615"), (np.True_, "True"), (np.str_("2"), "'2'"),
        (3.0, "3.0"), ([1, 2], "[1, 2]"),
    ], ids=["str", "float str", "np.float64", "np.nan", "np.uint64", "np.True_", "np.str_",
            "float", "list"])
    def test_one_form_for_every_value(self, x, shown):
        # the one echo is repr, with a NumPy scalar shown as its Python value
        assert _echo(x) == shown

    # ``.item()`` keeps a long double a NumPy scalar where it is wider than a
    # float, and its repr then depends on the numpy version
    @pytest.mark.parametrize("call, message", [
        (lambda: SweepSpec("haar", 2, np.longdouble(2), 1.0, 3),
         "param_start 2.0 exceeds param_end 1.0"),
        (lambda: exp_swap(2, np.longdouble("inf")), "parameter t must be finite, got inf"),
        (lambda: entanglement_report(SWAP, tol=np.clongdouble(1)),
         "unitarity tolerance must be finite and nonnegative, got (1+0j)"),
    ], ids=["SweepSpec longdouble", "exp_swap longdouble", "clongdouble"])
    def test_long_doubles_are_shown_by_str(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("x, shown", [
        ([10**5000], "a list too long to show"), ((1, -(10**5000)), "a tuple too long to show"),
        ({"k": [10**4301]}, "a dict too long to show"),
    ], ids=["list", "tuple", "nested dict"])
    def test_a_container_past_the_digit_limit_names_its_type(self, x, shown):
        assert _echo(x) == shown

    # log10 of a power of ten, or of one less, may round across the integer
    @pytest.mark.parametrize("x", [10**40, 2 * 10**40 - 1, -(10**40), 7**2000, 10**4000 - 1,
                                   10**4000], ids=["10**40", "2*10**40-1", "-10**40", "7**2000",
                                                   "10**4000-1", "10**4000"])
    def test_digit_count_and_leading_digits(self, x):
        digits = str(abs(x))
        sign = "-" if x < 0 else ""
        assert _echo(x) == f"{sign}{digits[:12]}... ({len(digits)} digits)"


SEED_RANGE = (0, 2**64 - 1, "seed")

# Every integer input of the package: the call, and the range and name its
# rule states.  Each goes through ``densemat._check_int``.
INTEGER_INPUTS = {
    "swap_op d": (swap_op, (2, 16, "local dimension")),
    "haar_unitary d_total": (lambda x: haar_unitary(x, 1), (1, 256, "dimension")),
    "haar_unitary seed": (lambda x: haar_unitary(4, x), SEED_RANGE),
    "product_state_batch n": (lambda x: product_state_batch(np.random.default_rng(1), x, 2),
                              (0, 10_000_000, "number of states")),
    "SweepSpec steps": (lambda x: SweepSpec("haar", 2, 0.0, 1.0, x), (1, 1_000_000, "steps")),
    "SweepSpec seed": (lambda x: SweepSpec("haar", 2, 0.0, 1.0, 3, x), SEED_RANGE),
    "entangling_power_mc n_samples": (lambda x: entangling_power_mc(SWAP, x, 1),
                                      (100, 10_000_000, "number of samples")),
    "entangling_power_mc seed": (lambda x: entangling_power_mc(SWAP, 500, x), SEED_RANGE),
    "run_acceptance extra_d": (lambda x: run_acceptance(False, x), (2, 16, "local dimension")),
    "run_acceptance mc_samples": (lambda x: run_acceptance(True, None, x),
                                  (100, 10_000_000, "number of samples")),
    "run_acceptance seed": (lambda x: run_acceptance(False, None, 50_000, x), SEED_RANGE),
}


class TestCheckInt:
    """``_check_int`` is the one integer rule: every integer input rejects a
    bool, a string, a float, None and an integer outside its range with one
    message form, showing the value by ``repr`` (strings quoted, NumPy
    scalars as plain numbers, long integers shortened)."""

    # None is no extra dimension at all, so run_acceptance's extra_d takes it
    @pytest.mark.parametrize("entry, value, shown", [
        pytest.param(entry, value, shown, id=f"{entry}-{label}")
        for entry in INTEGER_INPUTS
        for label, value, shown in [
            ("True", True, lambda lo: "True"),
            ("str", "3", lambda lo: "'3'"),
            ("float", 3.0, lambda lo: "3.0"),
            ("None", None, lambda lo: "None"),
            ("np.int64(lo - 1)", np.int64, lambda lo: str(lo - 1)),
            ("10**400", 10**400, lambda lo: "100000000000... (401 digits)"),
        ]
        if (entry, value) != ("run_acceptance extra_d", None)
    ])
    def test_every_integer_input_has_the_one_message(self, monkeypatch, entry, value, shown):
        monkeypatch.setattr(entpow.entanglement, "product_state_batch", fail_if_drawn)
        call, (lo, hi, name) = INTEGER_INPUTS[entry]
        x = np.int64(lo - 1) if value is np.int64 else value
        with pytest.raises(ValueError) as err:
            call(x)
        assert str(err.value) == f"{name} must be an integer from {lo} to {hi}, got {shown(lo)}"

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(0)], ids=repr)
    def test_numpy_seeds_are_accepted(self, seed):
        assert haar_unitary(4, seed).tobytes() == haar_unitary(4, int(seed)).tobytes()
        spec = SweepSpec("haar", 2, 0.0, 1.0, 3, seed)
        assert sweep_rows(spec) == sweep_rows(SweepSpec("haar", 2, 0.0, 1.0, 3, int(seed)))
        assert entangling_power_mc(SWAP, 100, seed) == entangling_power_mc(SWAP, 100, int(seed))

    def test_steps_are_stored_as_a_python_int(self):
        spec = SweepSpec("haar", 2, 0.0, 1.0, np.int64(3))
        assert type(spec.steps) is int and spec.steps == 3
        assert sweep_rows(spec) == sweep_rows(SweepSpec("haar", 2, 0.0, 1.0, 3))

    @pytest.mark.parametrize("x", [np.uint8(0), np.int64(7), np.uint64(2**64 - 1), 2**64 - 1])
    def test_accepted_values_come_back_as_python_ints(self, x):
        got = _check_int(x, 0, 2**64 - 1, "value")
        assert type(got) is int and got == int(x)

    @pytest.mark.parametrize("x", [np.True_, np.float64(3.0), 2**64, -1])
    def test_the_bounds_and_types_are_exact(self, x):
        with pytest.raises(ValueError, match="^value must be an integer from 0 to "):
            _check_int(x, 0, 2**64 - 1, "value")


def fail_if_drawn(*args, **kwargs):
    raise AssertionError("drew samples past validation")


class TestSpans:
    """``_spans``, the one rule that cuts n items into chunks of at most a byte budget."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 3000), item_bytes=st.integers(1, 2**21),
           budget=st.integers(0, 2**25))
    def test_spans_cover_the_items_in_full_spans_within_budget(self, n, item_bytes, budget):
        spans = list(_spans(n, item_bytes, budget))
        # contiguous, nonempty and covering [0, n) exactly
        bounds = [0] + [hi for _, hi in spans]
        assert [lo for lo, _ in spans] == bounds[:-1]
        assert bounds[-1] == n
        sizes = [hi - lo for lo, hi in spans]
        assert all(size >= 1 for size in sizes)
        # within the budget, unless a span holds one item
        assert all(size * item_bytes <= budget or size == 1 for size in sizes)
        # every span but the last is full: one more item would not fit, or one
        # item alone does not
        assert len(set(sizes[:-1])) <= 1
        assert all((size + 1) * item_bytes > budget for size in sizes[:-1])
        assert all(size >= sizes[-1] for size in sizes)

    @pytest.mark.parametrize("item_bytes, budget", [(1, 1), (16, 2**16), (2**20, 1)])
    def test_no_items_give_no_spans(self, item_bytes, budget):
        assert list(_spans(0, item_bytes, budget)) == []

    @pytest.mark.parametrize("per_span", [100, 1000])
    def test_memory_does_not_grow_with_n(self, per_span):
        # 10**7 items in 100,000 or 10,000 spans: a list of their bounds
        # would take about 11 MB or 1.1 MB, where walking them one at a time
        # holds one span
        n = 10**7
        tracemalloc.start()
        try:
            spans = _spans(n, 16, 16 * per_span)
            first = last = next(spans)
            for last in spans:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (first, last) == ((0, per_span), (n - per_span, n))
        assert peak <= 16 * 1024

    # Items per chunk of every caller at its default budget: operator stacks
    # of a sweep (and of verify's criteria) by d, Monte-Carlo chunks by d and
    # the number k of operators that share them.
    @pytest.mark.parametrize("caller, d, k, size", [
        ("sweep", 2, 1, 256), ("sweep", 3, 1, 50), ("sweep", 4, 1, 16), ("sweep", 5, 1, 6),
        ("sweep", 7, 1, 1), ("sweep", 16, 1, 1),
        ("mc", 2, 1, 4096), ("mc", 3, 1, 2080), ("mc", 5, 1, 845), ("mc", 8, 1, 356),
        ("mc", 16, 1, 95), ("mc", 2, 6, 1170), ("mc", 3, 5, 633),
    ])
    def test_chunk_sizes(self, monkeypatch, caller, d, k, size):
        # the sizes the caller evaluates for size + 1 items: a full chunk and one item
        sizes = []
        if caller == "sweep":
            measures = entpow.sweep._measures
            monkeypatch.setattr(entpow.sweep, "_measures",
                                lambda stack: sizes.append(len(stack)) or measures(stack))
            sweep_rows(SweepSpec("haar", d, 0.0, 1.0, size + 1))
        else:
            draw = entpow.entanglement.product_state_batch
            monkeypatch.setattr(entpow.entanglement, "product_state_batch",
                                lambda rng, n, d: sizes.append(n) or draw(rng, n, d))
            stack = _haar_stack(d * d, k, np.random.default_rng(d))
            entpow.entanglement._sample_entropies(stack, size + 1, np.random.default_rng(1))
        assert sizes == [size, 1]
