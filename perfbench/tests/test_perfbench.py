"""Tests of the benchmark itself: tiny runs pass, corrupted output fails.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import entpow
import entpow.sweep
import checks
import tracing
import workloads
from conftest import BENCH

ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
MAPPING = json.loads((BENCH / "metrics.json").read_text())


def _tiny(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](seed, workloads.TINY, tmp_path)
    wl.setup()
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(name, tmp_path):
    wl = _tiny(name, tmp_path)
    records, rounds = workloads.measure(wl, None, rounds=2)
    assert rounds == 2 and records
    assert [(r.kind, r.error) for r in records if r.error] == []
    slots, named = wl.metrics(records)
    e2e = {m["name"] for m in MANIFEST["end_to_end"]}
    assert set(slots) == e2e - {"setup_s", "peak_rss_mb"}
    assert all(math.isfinite(v) and v > 0 for v in slots.values())
    assert named


def _traced_layers(name, tmp_path):
    wl = _tiny(name, tmp_path)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        records = workloads.run_round(wl, 0, tracer)
    assert all(r.error is None for r in records)
    names = [m["name"] for m in MANIFEST["per_layer"]]
    units = sum(r.units for r in records)
    return tracing.layer_metrics(names, tracer.summary(), units, 0.0)


def test_traced_sweep_counts_sweep_and_rearrange_but_no_file_reads(tmp_path):
    m = _traced_layers("sweep-small-d", tmp_path)
    for name in ("sweep.sweep_rows.calls_per_op", "rearrange.realign.calls_per_op",
                 "rearrange.partial_transpose_first.calls_per_op",
                 "rearrange.BipartiteOperator.constructions_per_op",
                 "densemat.unitarity_defect.calls_per_op", "operators.haar_unitary.calls_per_op"):
        assert m[name] > 0, name
    # three gates per row, plus d block gates per controlled-U row
    assert m["densemat.unitarity_defect.calls_per_op"] > 3
    assert m["opfile.read_operator_file.calls_per_op"] == 0
    assert m["opfile.read_operator_file.self_ms"] == 0


def test_traced_eval_counts_file_reads(tmp_path):
    m = _traced_layers("eval-large-d", tmp_path)
    assert m["opfile.read_operator_file.calls_per_op"] == 1
    assert m["opfile.read_operator_file.mb_per_s"] > 0
    assert m["cli.main.calls_per_op"] == 1
    assert m["sweep.sweep_rows.calls_per_op"] == 0


def test_traced_mc_counts_sampler_and_verify(tmp_path):
    m = _traced_layers("mc-verify", tmp_path)
    assert m["operators.product_state_batch.calls_per_op"] > 0
    assert m["operators.product_state_batch.bytes_computed"] > 0
    assert m["verify.run_acceptance.calls_per_op"] > 0
    assert m["entanglement.entangling_power_mc.calls_per_op"] > 0


def test_tracing_restores_every_binding():
    before = entpow.sweep.operator_entanglement
    post_init = entpow.BipartiteOperator.__post_init__
    with tracing.traced(tracing.Tracer()):
        assert entpow.sweep.operator_entanglement is not before
    assert entpow.sweep.operator_entanglement is before
    assert entpow.BipartiteOperator.__post_init__ is post_init


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    outer()
    s = tracer.summary()
    assert s["m.inner"]["calls"] == 2
    assert s["m.outer"]["self_ns"] == pytest.approx(s["m.outer"]["incl_ns"] - s["m.inner"]["incl_ns"])


def test_reference_agrees_with_library():
    for d in (2, 3, 4):
        mat = checks.haar(d * d, np.random.default_rng(d))
        ref = checks.reference_measures(mat, d)
        report = entpow.entanglement_report(entpow.BipartiteOperator(d, mat))
        for key in ("e_op", "e_op_swapped", "e_op_swapped_right", "e_swap", "e_power"):
            assert abs(getattr(report, key) - ref[key]) < 1e-13, (d, key)


# --- corrupted outputs must be counted as failed ---------------------------

def _eval_case(tmp_path, unitary=True):
    d = 2
    mat = checks.haar(d * d, np.random.default_rng(7))
    if not unitary:
        mat = mat * 1.001
    path = tmp_path / "op.json"
    path.write_text(checks.serialize(mat, d, "x"))
    return workloads.run_cli(("eval", str(path))), checks.reference_measures(mat, d), d


def test_eval_check_rejects_perturbed_value_and_wrong_exit_code(tmp_path):
    (code, out, err), ref, d = _eval_case(tmp_path)
    assert checks.check_eval(code, out, err, ref, d, True) is None
    lines = out.splitlines()
    value = float(lines[2].split("=")[1])
    lines[2] = f"E(U)     = {value + 2e-12:.12f}"
    assert checks.check_eval(code, "\n".join(lines) + "\n", err, ref, d, True) is not None
    assert checks.check_eval(1, out, err, ref, d, True) is not None


def test_eval_check_requires_reject_to_exit_2_with_not_defined_line(tmp_path):
    (code, out, err), ref, d = _eval_case(tmp_path, unitary=False)
    assert code == 2
    assert checks.check_eval(code, out, err, ref, d, False) is None
    assert checks.check_eval(0, out, err, ref, d, False) is not None
    assert checks.check_eval(code, out.replace("not defined", "undefined"), err, ref, d, False) is not None


@pytest.mark.parametrize("family", entpow.FAMILIES)
def test_sweep_check_rejects_truncated_or_perturbed_csv(family):
    rows, d = 12, 3
    code, out, _ = workloads.run_cli(("sweep", "--family", family, "--d", str(d), "--steps", str(rows)))
    assert checks.check_sweep(code, out, family, d, rows) is None
    truncated = "\n".join(out.split("\n")[:-2]) + "\n"
    assert checks.check_sweep(code, truncated, family, d, rows) is not None
    lines = out.split("\n")
    cells = lines[5].split(",")
    cells[3] = format(float(cells[3]) + 1e-9, ".17g")
    lines[5] = ",".join(cells)
    assert checks.check_sweep(code, "\n".join(lines), family, d, rows) is not None
    assert checks.check_sweep(2, out, family, d, rows) is not None


def test_mc_and_verify_checks_fail_on_bad_output():
    assert checks.check_mc(0.30, 1e-4, 1000, 1000, 0.30) is None
    assert checks.check_mc(0.32, 1e-4, 1000, 1000, 0.30) is not None
    assert checks.check_mc(0.30, 1e-4, 999, 1000, 0.30) is not None
    code, out, _ = workloads.run_cli(("verify",))
    assert checks.check_verify(code, out) is None
    assert checks.check_verify(code, out.replace("PASS", "FAIL", 1)) is not None
    assert checks.check_verify(2, out) is not None


def test_runner_counts_corrupted_outputs_as_failed(tmp_path, monkeypatch):
    wl = _tiny("eval-large-d", tmp_path)
    real = workloads.run_cli

    def corrupt(argv):
        code, out, err = real(argv)
        return code, out.replace("E(U)     = 0.", "E(U)     = 1."), err

    monkeypatch.setattr(workloads, "run_cli", corrupt)
    records, _ = workloads.measure(wl, None, rounds=1)
    assert records and all(r.error for r in records)


def test_runner_counts_exceptions_as_failed(tmp_path):
    wl = _tiny("mc-verify", tmp_path)
    wl.sizes = dataclasses.replace(workloads.TINY, mc_samples=10)  # below the library's minimum
    records, _ = workloads.measure(wl, None, rounds=1)
    mc = [r for r in records if r.kind.startswith("mc:")]
    assert mc and all(r.error and r.error.startswith("ValueError") for r in mc)


# --- the manifest and its documentation agree ------------------------------

def test_every_per_layer_metric_is_computable_and_mapped():
    names = [m["name"] for m in MANIFEST["per_layer"]]
    summary = {n: {"calls": 1, "incl_ns": 1.0, "self_ns": 1.0, "bytes": 1.0}
               for n in [n.rsplit(".", 1)[0] for n in names if n.count(".") > 1]}
    tracing.layer_metrics(names, summary, 1, 0.0)
    assert set(MAPPING["per_layer"]) == set(names)
    assert set(MAPPING["end_to_end"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    workload_names = {w["name"] for w in MANIFEST["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    for entry in MAPPING["per_layer"].values():
        for move in entry["moves"]:
            assert move["workload"] in workload_names
            assert move["slot"] in MAPPING["end_to_end"]
    staged = {m for ms in MAPPING["roadmap_stages"].values() for m in ms}
    assert staged <= set(names)


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small-d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
