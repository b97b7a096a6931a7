"""Tests for the command-line interface and the sweep CSV contract."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entpow
from entpow.cli import EXIT_CHECK_FAILURE, EXIT_OK, EXIT_VALIDATION, main
from entpow.entanglement import entanglement_report
from entpow.opfile import parse_operator_file, serialize_operator
from entpow.operators import ControlledUSpec, controlled_u, exp_swap, haar_unitary, swap_op
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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_mc_line(self, capsys, cnot_file):
        code, out, _ = run(
            capsys, "eval", cnot_file, "--mc", "--mc-samples", "5000", "--seed", "2"
        )
        assert code == EXIT_OK
        assert "(5000 samples, seed 2)" in out
        mean = grab(out, "e_p (mc)")
        stderr = float(out.split("+/-")[1].split("(")[0])
        assert abs(mean - 2 / 9) <= 6 * stderr

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

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "exp_swap", "--d", "2", "--steps", "0")
        assert code == EXIT_VALIDATION and "steps" in err
        code, _, err = run(capsys, "sweep", "--family", "exp_swap", "--d", "1", "--steps", "3")
        assert code == EXIT_VALIDATION and "dimension" in err
        code, _, err = run(
            capsys, "sweep", "--family", "exp_swap", "--d", "2",
            "--start", "2", "--end", "1",
        )
        assert code == EXIT_VALIDATION and "exceeds" in err

    @pytest.mark.parametrize("seed", [str(2**64), str(2**70), "-1"])
    def test_seed_outside_64_bits_rejected(self, capsys, seed):
        code, out, err = run(capsys, "sweep", "--family", "haar", "--d", "2", "--seed", seed)
        assert code == EXIT_VALIDATION
        assert "64-bit" in err
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

    def test_bad_dimension_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--d", "1")
        assert code == EXIT_VALIDATION
        assert "--d" in err


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
