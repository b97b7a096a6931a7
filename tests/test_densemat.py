"""Tests for the dense matrix kernel."""

import numpy as np
import pytest

from entpow.densemat import (
    _echo,
    as_complex_matrix,
    frobenius_norm_sq,
    unitarity_defect,
)
from entpow.entanglement import entangling_power_mc, entanglement_report, state_linear_entropy
from entpow.operators import (
    ControlledUSpec,
    exp_swap,
    haar_unitary,
    max_entangled_projector,
    product_state_batch,
    swap_op,
)
from entpow.rearrange import BipartiteOperator
from entpow.sweep import SweepSpec
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
        (lambda x: SweepSpec("haar", 2, 0.0, 1.0, x), "steps must be from 1 to 1000000"),
        (lambda x: SweepSpec("haar", 2, x, 1.0, 3), "parameter range must be finite"),
        (lambda x: SweepSpec("haar", 2, 0.0, 1.0, 3, x), "seed must be a nonnegative"),
        (lambda x: entangling_power_mc(SWAP, x, 1), "at most 10000000 samples are allowed"),
        (lambda x: entangling_power_mc(SWAP, -x, 1), "need at least 100 samples"),
        (lambda x: entangling_power_mc(SWAP, 500, x), "seed must be a nonnegative"),
        (lambda x: entanglement_report(SWAP, tol=x), "unitarity tolerance must be finite"),
        (lambda x: haar_unitary(x, 1), "dimension must be an integer from 1 to 256"),
        (lambda x: product_state_batch(np.random.default_rng(1), -x, 2),
         "number of states must be a nonnegative integer"),
        (lambda x: product_state_batch(np.random.default_rng(1), x, 2),
         "number of states must be a nonnegative integer up to 10000000"),
        (lambda x: run_acceptance(False, x), "local dimension must be an integer from 2 to 16"),
    ], ids=["swap_op", "exp_swap", "SweepSpec steps", "SweepSpec range", "SweepSpec seed",
            "mc samples", "mc samples below", "mc seed", "report tol", "haar_unitary",
            "product_state_batch", "product_state_batch above", "verify extra d"])
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
        assert _echo(x) == repr(x) and _echo(x, str) == str(x)

    # log10 of a power of ten, or of one less, may round across the integer
    @pytest.mark.parametrize("x", [10**40, 2 * 10**40 - 1, -(10**40), 7**2000, 10**4000 - 1,
                                   10**4000], ids=["10**40", "2*10**40-1", "-10**40", "7**2000",
                                                   "10**4000-1", "10**4000"])
    def test_digit_count_and_leading_digits(self, x):
        digits = str(abs(x))
        sign = "-" if x < 0 else ""
        assert _echo(x) == f"{sign}{digits[:12]}... ({len(digits)} digits)"
