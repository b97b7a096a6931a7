"""Tests for the command-line interface and the sweep CSV contract."""

import io
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entpow
import entpow.cli
import entpow.entanglement
import entpow.verify
from entpow.cli import EXIT_CHECK_FAILURE, EXIT_OK, EXIT_VALIDATION, main
from entpow.entanglement import entanglement_report
from entpow.opfile import _MAX_BYTES, read_operator_file, serialize_operator
from entpow.operators import ControlledUSpec, controlled_u, exp_swap, haar_unitary, swap_op
from entpow.operators import _haar_stack
from entpow.rearrange import BipartiteOperator
from entpow.sweep import CSV_HEADER, FAMILIES, SweepSpec, render_csv, sweep_rows

CNOT = controlled_u(ControlledUSpec(2, (np.eye(2), np.array([[0, 1], [1, 0]]))))


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(serialize_operator(swap_op(2), name="swap"))
    return str(path)


@pytest.fixture
def cnot_file(tmp_path):
    path = tmp_path / "cnot.json"
    path.write_text(serialize_operator(CNOT, name="cnot"))
    return str(path)

# Operator files with a 5000-digit integer as d, as the name and as an entry.
_DIGITS = "7" * 5000
LONG_INTEGER_FILES = [
    serialize_operator(swap_op(2)).replace('"d": 2', f'"d": {_DIGITS}'),
    serialize_operator(swap_op(2), "swap").replace('"swap"', _DIGITS),
    serialize_operator(swap_op(2)).replace("[1, 0]", f"[{_DIGITS}, 0]", 1),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_if_called(*args, **kwargs):
    raise AssertionError("reached the computation past validation")


def grab(out, label):
    """Value printed after 'label = '."""
    for line in out.splitlines():
        if line.startswith(label):
            return float(line.split("=")[1].split("+/-")[0])
    raise AssertionError(f"no line starts with {label!r}:\n{out}")


class TestEval:
    def test_swap(self, capsys, swap_file):
        code, out, err = run(capsys, "eval", swap_file)
        assert code == EXIT_OK
        assert err == ""
        assert "operator: swap (d = 2)" in out
        assert "E(U)     = 0.750000000000" in out
        assert "E(S12 U) = 0.000000000000" in out
        assert "E(U S12) = 0.000000000000" in out
        assert "E(S12)   = 0.750000000000" in out
        assert "e_p      = 0.000000000000" in out

    def test_cnot(self, capsys, cnot_file):
        code, out, _ = run(capsys, "eval", cnot_file)
        assert code == EXIT_OK
        assert "E(U)     = 0.500000000000" in out
        assert "E(S12 U) = 0.750000000000" in out
        assert "e_p      = 0.222222222222" in out

    def test_unnamed_operator(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(serialize_operator(swap_op(2)))
        code, out, _ = run(capsys, "eval", str(path))
        assert code == EXIT_OK
        assert "operator: (unnamed) (d = 2)" in out

    def test_printed_values_match_library(self, capsys, tmp_path):
        op = BipartiteOperator(2, haar_unitary(4, seed=77))
        path = tmp_path / "haar.json"
        path.write_text(serialize_operator(op, name="haar-77"))
        code, out, _ = run(capsys, "eval", str(path))
        assert code == EXIT_OK
        report = entanglement_report(op)
        assert grab(out, "E(U)") == pytest.approx(report.e_op, abs=1e-11)
        assert grab(out, "E(S12 U)") == pytest.approx(report.e_op_swapped, abs=1e-11)
        assert grab(out, "e_p") == pytest.approx(report.e_power, abs=1e-11)

    def test_non_unitary_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(serialize_operator(BipartiteOperator(2, 1.5 * swap_op(2).mat)))
        code, out, err = run(capsys, "eval", str(path))
        assert code == EXIT_CHECK_FAILURE
        assert "not unitary" in err
        assert "e_p      = (not defined" in out
        # entanglement fields are still reported
        assert "E(U)" in out

    def test_loose_tolerance_accepts(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(serialize_operator(BipartiteOperator(2, 1.5 * swap_op(2).mat)))
        code, _, _ = run(capsys, "eval", str(path), "--tol", "2.0")
        assert code == EXIT_OK

    def test_negative_tolerance_rejected(self, capsys, swap_file):
        code, _, err = run(capsys, "eval", swap_file, "--tol", "-1")
        assert code == EXIT_VALIDATION
        assert "nonnegative" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_rejected(self, capsys, tmp_path, tol):
        # an all-ones matrix has defect 4; no tolerance may wave it through
        path = tmp_path / "ones.json"
        path.write_text(serialize_operator(BipartiteOperator(2, np.ones((4, 4)))))
        code, out, err = run(capsys, "eval", str(path), f"--tol={tol}")
        assert code == EXIT_VALIDATION
        assert "finite" in err
        assert "e_p" not in out

    def test_cnot_full_output(self, capsys, cnot_file):
        code, out, err = run(capsys, "eval", cnot_file)
        assert code == EXIT_OK
        assert err == ""
        assert out == (
            "operator: cnot (d = 2)\n"
            "unitarity defect: 0.000e+00 (tol 1.0e-09)\n"
            "E(U)     = 0.500000000000\n"
            "E(S12 U) = 0.750000000000\n"
            "E(U S12) = 0.750000000000\n"
            "E(S12)   = 0.750000000000\n"
            "e_p      = 0.222222222222\n"
        )

    def test_defect_line_and_message_agree(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(serialize_operator(BipartiteOperator(2, 1.5 * swap_op(2).mat)))
        code, out, err = run(capsys, "eval", str(path))
        assert code == EXIT_CHECK_FAILURE
        assert "unitarity defect: 1.250e+00 (tol 1.0e-09)" in out
        assert "defect 1.250000e+00 exceeds tol 1.0e-09" in err

    def test_overflowing_operator_exits_2_with_one_stderr_line(self, capsys, tmp_path):
        # finite entries whose Gram products overflow: no numpy warning, only the gate's line
        path = tmp_path / "huge.json"
        path.write_text(serialize_operator(BipartiteOperator(2, 1e200 * np.eye(4)), name="huge"))
        code, out, err = run(capsys, "eval", str(path))
        assert code == EXIT_CHECK_FAILURE
        assert err == "entpow: operator is not unitary: defect inf exceeds tol 1.0e-09\n"
        assert out == (
            "operator: huge (d = 2)\n"
            "unitarity defect: inf (tol 1.0e-09)\n"
            "E(U)     = nan\n"
            "E(S12 U) = nan\n"
            "E(U S12) = nan\n"
            "E(S12)   = 0.750000000000\n"
            "e_p      = (not defined: operator failed the unitarity check)\n"
        )

    def test_mc_line(self, capsys, cnot_file):
        code, out, _ = run(
            capsys, "eval", cnot_file, "--mc", "--mc-samples", "5000", "--seed", "2"
        )
        assert code == EXIT_OK
        assert "(5000 samples, seed 2)" in out
        mean = grab(out, "e_p (mc)")
        stderr = float(out.split("+/-")[1].split("(")[0])
        assert abs(mean - 2 / 9) <= 6 * stderr

    def test_mc_sample_cap(self, capsys, cnot_file, monkeypatch):
        monkeypatch.setattr(entpow.entanglement, "product_state_batch", fail_if_called)
        code, out, err = run(capsys, "eval", cnot_file, "--mc", "--mc-samples", "10000001")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == ("entpow: error: number of samples must be an integer from 100 to 10000000, "
                       "got 10000001\n")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_mc_seed_outside_64_bits_prints_no_measures(self, capsys, cnot_file, monkeypatch, seed):
        monkeypatch.setattr(entpow.cli, "read_operator_file", fail_if_called)
        monkeypatch.setattr(entpow.cli, "entanglement_report", fail_if_called)
        code, out, err = run(capsys, "eval", cnot_file, "--mc", "--seed", seed)
        assert code == EXIT_VALIDATION and out == ""
        assert err == f"entpow: error: seed must be an integer from 0 to {2**64 - 1}, got {seed}\n"

    def test_mc_accepts_the_largest_64_bit_seed(self, capsys, cnot_file):
        code, out, _ = run(capsys, "eval", cnot_file, "--mc", "--mc-samples", "200",
                           "--seed", str(2**64 - 1))
        assert code == EXIT_OK
        assert f"(200 samples, seed {2**64 - 1})" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", str(tmp_path / "nope.json"))
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "eval", str(path))
        assert code == EXIT_VALIDATION
        assert "malformed" in err

    @pytest.mark.parametrize("content, message", [
        (serialize_operator(swap_op(2)).replace("1, 0]", "1" + "0" * 400 + ", 0]", 1),
         "entry at row 0, column 0 is out of float range"),
        ("[" * 100_000, "malformed operator file: nesting too deep"),
        ('{"d": 17, "matrix": []}', "local dimension must be an integer from 2 to 16, got 17"),
        # past Python's limit on the digits of an integer read from text: the
        # message names the limit, not a Python call that raises it
        *[(text, f"malformed operator file: an integer has more than "
                 f"{sys.get_int_max_str_digits()} digits") for text in LONG_INTEGER_FILES],
    ], ids=["huge-int", "deep-nesting", "d-17", "5000-digit-d", "5000-digit-name",
            "5000-digit-entry"])
    def test_out_of_range_file_exits_1(self, capsys, monkeypatch, tmp_path, content, message):
        monkeypatch.setattr(entpow.cli, "entanglement_report", fail_if_called)
        path = tmp_path / "bad.json"
        path.write_text(content)
        code, out, err = run(capsys, "eval", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"entpow: error: {message}\n"

    def test_oversized_file_read_only_past_the_cap(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "big.json"
        path.write_bytes(b" " * (_MAX_BYTES + 4096))
        sizes = []

        def reader(content):
            sizes.append(len(content))
            return read_operator_file(content)

        monkeypatch.setattr(entpow.cli, "read_operator_file", reader)
        code, out, err = run(capsys, "eval", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "16 MiB" in err
        assert sizes == [_MAX_BYTES + 1]


class TestSweep:
    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "exp_swap", "--d", "2", "--steps", "3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == CSV_HEADER == "param,e_op,e_op_swapped,e_power"

    def test_exp_swap_matches_closed_forms(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "exp_swap", "--d", "2", "--steps", "5")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 6
        grid = np.linspace(0.0, math.pi, 5)
        for line, t in zip(lines[1:], grid):
            param, e_op, e_sw, e_p = map(float, line.split(","))
            assert param == pytest.approx(t, abs=1e-15)
            assert e_op == pytest.approx(0.75 * (1 - math.cos(t) ** 4), abs=1e-12)
            assert e_sw == pytest.approx(0.75 * (1 - math.sin(t) ** 4), abs=1e-12)
            assert e_p == pytest.approx(math.sin(2 * t) ** 2 / 6, abs=1e-12)

    def test_half_pi_row_is_swap_like(self, capsys):
        # the middle of [0, pi] is t = pi/2, where the gate is -i S12
        code, out, _ = run(capsys, "sweep", "--family", "exp_swap", "--d", "2", "--steps", "5")
        assert code == EXIT_OK
        _, e_op, e_sw, e_p = map(float, out.splitlines()[3].split(","))
        assert e_op == pytest.approx(0.75, abs=1e-12)
        assert e_sw == pytest.approx(0.0, abs=1e-12)
        assert e_p == pytest.approx(0.0, abs=1e-12)

    def test_single_step(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "exp_swap", "--d", "3",
            "--start", "0.5", "--end", "2.0", "--steps", "1",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.5

    def test_file_output_is_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["sweep", "--family", "haar", "--d", "2", "--steps", "4", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_unwritable_out_fails_before_any_row(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(entpow.cli, "sweep_rows", fail_if_called)
        path = tmp_path / "no" / "such" / "x.csv"
        code, out, err = run(capsys, "sweep", "--family", "haar", "--d", "3",
                             "--steps", "300000", "--out", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"entpow: error: [Errno 2] No such file or directory: {str(path)!r}\n"
        assert not path.parent.exists()

    def test_stdout_and_file_agree(self, tmp_path, capsys):
        args = ["sweep", "--family", "exp_swap", "--d", "2", "--steps", "3"]
        out_file = tmp_path / "c.csv"
        assert main(args + ["--out", str(out_file)]) == EXIT_OK
        _, out, _ = run(capsys, *args)
        assert out == out_file.read_text()

    def test_controlled_family_pins_swapped_entanglement(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "controlled_u_random", "--d", "2", "--steps", "4"
        )
        assert code == EXIT_OK
        for line in out.splitlines()[1:]:
            _, e_op, e_sw, e_p = map(float, line.split(","))
            assert e_sw == pytest.approx(0.75, abs=1e-12)
            assert e_p == pytest.approx((2 / 3) ** 2 * e_op, abs=1e-12)

    def test_haar_family_values_in_range(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "haar", "--d", "3", "--steps", "5")
        assert code == EXIT_OK
        for line in out.splitlines()[1:]:
            _, e_op, e_sw, e_p = map(float, line.split(","))
            cap = 1 - 1 / 9 + 1e-9
            assert 0 <= e_op <= cap
            assert 0 <= e_sw <= cap
            assert -1e-9 <= e_p <= cap

    def test_unknown_family_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "nope", "--d", "2"])
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        for family in FAMILIES:
            assert family in err

    def test_bad_grid_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(entpow.cli, "sweep_rows", fail_if_called)
        for steps in ("0", "1000001"):
            code, _, err = run(capsys, "sweep", "--family", "exp_swap", "--d", "2", "--steps", steps)
            message = f"steps must be an integer from 1 to 1000000, got {steps}"
            assert code == EXIT_VALIDATION and err == f"entpow: error: {message}\n"
        for d in ("1", "17"):
            code, _, err = run(capsys, "sweep", "--family", "exp_swap", "--d", d, "--steps", "3")
            assert code == EXIT_VALIDATION and "dimension must be an integer from 2 to 16" in err
        code, _, err = run(
            capsys, "sweep", "--family", "exp_swap", "--d", "2",
            "--start", "2", "--end", "1",
        )
        assert code == EXIT_VALIDATION and "exceeds" in err

    @pytest.mark.parametrize("family", FAMILIES)
    def test_overflowing_parameter_range_rejected(self, capsys, monkeypatch, family):
        monkeypatch.setattr(entpow.cli, "sweep_rows", fail_if_called)
        code, out, err = run(capsys, "sweep", "--family", family, "--d", "2",
                             "--start=-1.7e308", "--end=1.7e308", "--steps", "3")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == ("entpow: error: parameter range must be finite, "
                       "got -1.7e+308 to 1.7e+308\n")

    @pytest.mark.parametrize("seed", [str(2**64), str(2**70), "-1"])
    def test_seed_outside_64_bits_rejected(self, capsys, seed):
        code, out, err = run(capsys, "sweep", "--family", "haar", "--d", "2", "--seed", seed)
        assert code == EXIT_VALIDATION
        assert err == f"entpow: error: seed must be an integer from 0 to {2**64 - 1}, got {seed}\n"
        assert out == ""

    def test_missing_required_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--d", "2"])
        assert exc.value.code == EXIT_VALIDATION
        capsys.readouterr()

    def test_render_matches_library_rows(self):
        spec = SweepSpec(family="exp_swap", d=2, param_start=0.0, param_end=1.0, steps=3)
        text = render_csv(sweep_rows(spec))
        assert text.startswith(CSV_HEADER + "\n")
        assert text == render_csv(sweep_rows(spec))

    @pytest.mark.parametrize("rows", [
        [],
        [(a, b, c, e)
         for a in (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.8e308, -1.8e308, 0.1)
         for b in (-0.0, 5e-324, math.inf, 1 / 3)
         for c in (math.nan, -1.8e308)
         for e in (0.0, -math.inf, 2.0**-1074 * 3)],
        [tuple(x) for x in np.random.default_rng(0).standard_normal((500, 4))
         * 10.0 ** np.random.default_rng(1).integers(-300, 300, (500, 4))],
    ], ids=["empty", "edge", "random"])
    def test_render_is_per_value_format(self, rows):
        rows = [tuple(float(x) for x in row) for row in rows]
        lines = [CSV_HEADER] + [",".join(format(x, ".17g") for x in row) for row in rows]
        assert render_csv(rows) == "\n".join(lines) + "\n"


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert all(line.startswith("PASS") or line.startswith(" ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")
        assert "FAIL" not in out

    def test_extra_dimension(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "4")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_mc_check_included(self, capsys):
        code, out, _ = run(capsys, "verify", "--mc", "--mc-samples", "20000")
        assert code == EXIT_OK
        assert "monte" in out.lower() or "mc" in out.lower()

    def test_mc_sample_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(entpow.verify, "_new_run", fail_if_called)
        monkeypatch.setattr(entpow.entanglement, "product_state_batch", fail_if_called)
        code, _, err = run(capsys, "verify", "--mc", "--mc-samples", "10000001")
        assert code == EXIT_VALIDATION
        assert err == ("entpow: error: number of samples must be an integer from 100 to 10000000, "
                       "got 10000001\n")

    def test_bad_dimension_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(entpow.verify, "_new_run", fail_if_called)
        for d in ("1", "17"):
            code, out, err = run(capsys, "verify", "--d", d)
            assert code == EXIT_VALIDATION and out == ""
            message = f"local dimension must be an integer from 2 to 16, got {d}"
            assert err == f"entpow: error: {message}\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_rejected_before_any_criterion(self, capsys, monkeypatch, seed):
        table = [(key, title, bound, fail_if_called)
                 for key, title, bound, _ in entpow.verify.CRITERIA]
        monkeypatch.setattr(entpow.verify, "CRITERIA", tuple(table))
        for mc in ([], ["--mc"]):
            code, out, err = run(capsys, "verify", *mc, "--seed", seed)
            assert code == EXIT_VALIDATION and out == ""
            assert err == f"entpow: error: seed must be an integer from 0 to {2**64 - 1}, got {seed}\n"

    @pytest.mark.parametrize("extra_d", [1, 17, 200, 3.5, np.int64(17), True])
    def test_library_rejects_extra_d_before_building(self, monkeypatch, extra_d):
        monkeypatch.setattr(entpow.verify, "swap_op", fail_if_called)
        monkeypatch.setattr(entpow.verify, "_new_run", fail_if_called)
        # a NumPy integer is shown as its Python value, whatever numpy's repr
        shown = extra_d.item() if isinstance(extra_d, np.generic) else extra_d
        message = f"local dimension must be an integer from 2 to 16, got {shown!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            entpow.verify.run_acceptance(extra_d=extra_d)

    @pytest.mark.parametrize("extra_d", [3, 7])
    def test_library_accepts_numpy_integer_extra_d(self, monkeypatch, extra_d):
        table = [(key, title, bound, lambda run, rng: 0.0)
                 for key, title, bound, _ in entpow.verify.CRITERIA]
        monkeypatch.setattr(entpow.verify, "CRITERIA", tuple(table))
        got = entpow.verify.run_acceptance(extra_d=np.int64(extra_d))
        # titles list the dimension as a plain int, "[2, 3, 4, 5, 7]"
        assert got == entpow.verify.run_acceptance(extra_d=extra_d)

    def test_failed_criterion_exits_2(self, capsys, monkeypatch):
        table = list(entpow.verify.CRITERIA)
        key, title, bound, _ = table[0]
        table[0] = (key, title, bound, lambda run, rng: 2 * bound)
        monkeypatch.setattr(entpow.verify, "CRITERIA", tuple(table))
        code, out, _ = run(capsys, "verify")
        lines = out.splitlines()
        assert "FAIL  swap operator: E = 1 - 1/d^2 and e_p = 0 (d in [2, 3, 4, 5])" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == "8/9 checks passed"
        assert code == EXIT_CHECK_FAILURE

    def test_results_follow_the_table(self):
        titles = [title for _, title, _, _ in entpow.verify.CRITERIA]
        params = vars(entpow.verify._new_run(None, 2000, 1))
        want = [t.format(**params) for t in titles]
        with_mc = entpow.verify.run_acceptance(include_mc=True, mc_samples=2000)
        without_mc = entpow.verify.run_acceptance()
        assert (len(with_mc), len(without_mc)) == (10, 9)
        assert [r.name for r in with_mc] == want
        assert [r.name for r in without_mc] == want[:7] + want[8:]

    def test_largest_seed_runs_every_criterion(self, monkeypatch):
        seeds = []
        estimate = entpow.verify._mc_estimates

        def recording(stack, n_samples, seed):
            seeds.append(seed)
            return estimate(stack, n_samples, seed)

        monkeypatch.setattr(entpow.verify, "_mc_estimates", recording)
        results = entpow.verify.run_acceptance(include_mc=True, mc_samples=100, seed=2**64 - 1)
        assert len(results) == 10 and all(r.passed for r in results)
        # the oracle's two streams take the next two 64-bit words of its own
        # generator [seed, k] after its operators; determinism keeps the seed
        k = [key for key, *_ in entpow.verify.CRITERIA].index("monte_carlo_oracle")
        rng = np.random.default_rng([2**64 - 1, k])
        for m in (4, 9):  # the 5 Haar operators at d = 2, then those at d = 3
            _haar_stack(m, 5, rng)
        streams = [int(rng.bit_generator.random_raw()) for _ in range(2)]
        assert seeds == [*streams, 2**64 - 1, 2**64 - 1]

    @pytest.mark.parametrize("seed", [np.int64(1), np.uint64(2**64 - 1)], ids=repr)
    def test_numpy_integer_seed_runs_as_its_python_int(self, seed):
        def run(s):
            return entpow.verify.run_acceptance(include_mc=True, mc_samples=100, seed=s)

        results = run(seed)
        assert len(results) == 10 and all(r.passed for r in results)
        assert results == run(int(seed))


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        # run the module in a fresh interpreter, importing the same package
        src = str(Path(entpow.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / "cnot.json"
        path.write_text(serialize_operator(CNOT, name="cnot"))
        proc = subprocess.run(
            [sys.executable, "-m", "entpow.cli", "eval", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0
        assert "e_p      = 0.222222222222" in proc.stdout


class TestNoCommand:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_VALIDATION
        capsys.readouterr()


def _parse_output(parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which ends in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


class TestParser:
    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        built = []
        fresh = entpow.cli.build_parser
        monkeypatch.setattr(entpow.cli, "build_parser", lambda: built.append(1) or fresh())
        entpow.cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["sweep", "--family", "exp_swap", "--d", "2", "--steps", "2"]) == 0
        finally:
            entpow.cli._parser.cache_clear()
        assert built == [1]
        capsys.readouterr()

    def test_build_parser_returns_a_fresh_parser(self):
        assert entpow.cli.build_parser() is not entpow.cli.build_parser()
        assert entpow.cli.build_parser() is not entpow.cli._parser()

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["sweep", "--help"], ["eval", "--help"], ["verify", "--help"],
        ["sweep"], ["sweep", "--family", "nope", "--d", "2"], ["eval", "a", "--seed", "x"],
        ["verify", "--d"], ["bogus"],
    ], ids=" ".join)
    def test_usage_and_help_are_those_of_a_fresh_parser(self, argv):
        for _ in range(2):  # a parse leaves the cached parser as it was
            assert _parse_output(main, argv) == _parse_output(
                entpow.cli.build_parser().parse_args, argv)


# Tokens for the argv property test.  No token is a prefix of --out (argparse
# accepts abbreviations), so no drawn argv writes a file; accepted --steps
# stay within 1..8 and accepted --mc-samples within 100..300, the eval
# files are d=2 and verify runs with every criterion replaced by a constant,
# so no drawn argv starts a large computation.
JUNK = st.sampled_from(
    ["", "-", "--", "-x", "--bogus", "abc", "nan", "inf", "1e9", "0x10", "3.5", "é"]
)


def _flag(name, accepted, rejected):
    """(accepted, rejected) token lists of one flag; a rejected flag has a
    value from ``rejected`` or no value at all."""
    def with_value(values):
        return st.sampled_from(values).map(lambda v: [name, v])

    return with_value(accepted), st.one_of(with_value(rejected), st.just([name]))


SEED = _flag("--seed", ["0", "1", "7", str(2**64 - 1)], [str(2**64), "-1", "1.5", "x"])

SWEEP_FLAGS = [
    _flag("--family", list(FAMILIES), ["nope"]),
    _flag("--d", ["2", "3", "4"], ["0", "1", "-1", "17", "100"]),
    _flag("--steps", [str(n) for n in range(1, 9)], ["0", "-3", "1000001", str(10**12)]),
    _flag("--start", ["0", "-1", "0.5"], ["2.5", "nan", "inf", "-inf"]),
    _flag("--end", ["1", "3.14", "1e308"], ["nan", "inf", "-1e308"]),
    SEED,
]

VERIFY_FLAGS = [
    (st.just(["--mc"]), st.just([])),
    _flag("--d", ["2", "5", "16"], ["0", "1", "-1", "17", "100"]),
    _flag("--mc-samples", ["100", "50000", "10000000"], ["99", "0", "-5", "10000001"]),
    SEED,
]


@st.composite
def _argv(draw, command, fields):
    """``command`` and every field accepted, then up to three edits (a field
    rejected or dropped, a junk token inserted), in shuffled order."""
    groups = [draw(valid) for valid, _ in fields]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(["reject", "drop", "junk"]))
        if edit == "reject":
            groups[k] = draw(fields[k][1])
        elif edit == "drop":
            groups[k] = []
        else:
            groups.insert(k, [draw(JUNK)])
    return [command, *(t for g in draw(st.permutations(groups)) for t in g)]


@pytest.fixture(scope="module")
def eval_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_argv")
    files = {"swap.json": swap_op(2), "cnot.json": CNOT}
    for name, op in files.items():
        (root / name).write_text(serialize_operator(op, name=name))
    scaled = BipartiteOperator(2, 1.5 * np.eye(4))  # exits 2: not unitary
    (root / "scaled.json").write_text(serialize_operator(scaled))
    (root / "bad.json").write_text('{"d": 2, "matrix": [[[1, 0]]]}')
    # (accepted, rejected) paths; the scaled operator is accepted and exits 2
    accepted = [str(root / name) for name in [*files, "scaled.json"]]
    rejected = [str(root / "bad.json"), str(root / "missing.json"), str(root)]
    return st.sampled_from([[p] for p in accepted]), st.sampled_from([[p] for p in rejected])


def _exit_status(argv):
    """Exit status of ``main(argv)``, returned or carried by argparse's SystemExit."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code


class TestExitCodeProperty:
    """Any argv gives exit status 0, 1 or 2; nothing else escapes main."""

    @settings(max_examples=200, deadline=5000)
    @given(_argv("sweep", SWEEP_FLAGS))
    def test_sweep(self, argv):
        assert _exit_status(argv) in (EXIT_OK, EXIT_VALIDATION, EXIT_CHECK_FAILURE)

    @settings(max_examples=150, deadline=5000)
    @given(st.data())
    def test_eval(self, eval_paths, data):
        fields = [
            eval_paths,
            (st.just(["--mc"]), st.just([])),
            _flag("--mc-samples", [str(n) for n in range(100, 301)], ["99", "0", "-5", "10000001"]),
            SEED,
            _flag("--tol", ["1e-9", "0", "0.5"], ["-1", "nan", "inf"]),
        ]
        argv = data.draw(_argv("eval", fields))
        assert _exit_status(argv) in (EXIT_OK, EXIT_VALIDATION, EXIT_CHECK_FAILURE)

    @settings(max_examples=200, deadline=5000)
    @given(_argv("verify", VERIFY_FLAGS), st.sampled_from([0.0, 0.5, 2.0]))
    def test_verify(self, argv, worst):
        # every criterion returns ``worst`` (some pass, some fail at 0.5 and
        # 2.0), so only the argv handling runs
        table = tuple((key, title, bound, lambda run, rng: worst)
                      for key, title, bound, _ in entpow.verify.CRITERIA)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entpow.verify, "CRITERIA", table)
            assert _exit_status(argv) in (EXIT_OK, EXIT_VALIDATION, EXIT_CHECK_FAILURE)
