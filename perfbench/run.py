"""entpow benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep-small-d --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json.
--trace 1 alternates untraced rounds with the same rounds run with spans
around every call into an entpow module, and reports the per-layer metrics.
Every operation's output is checked; a failed check or an exception counts
in "failed".  A human-readable report, with each figure
under the name the workload gives it and with provenance, precedes the JSON
line; full details and spans go to .perfbench_out/.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is driven from one process, and a fixed thread
# count keeps runs comparable.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# Held out: never used while tuning the benchmark or a change; a claimed gain
# must also hold on this seed.
HELD_OUT_SEED = 20070209
SETUP_REPEATS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description="entpow benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:  # no /proc: thread count unknown
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "entpow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "entpow" / "__init__.py").is_file():
        print(f"perfbench: no entpow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import entpow.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.FULL, OUT_DIR)

    # Set-up is calibrated like the commands: wall time over the kernel's
    # time measured around it, in units of CAL_REF_S.
    def calibrated(seconds, cal):
        return seconds * workloads.CAL_REF_S / cal

    import_ref_s = calibrated(import_s, workloads.calibration_s(5))
    setup_wall, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        cal = workloads.calibration_s(3)
        t0 = time.perf_counter()
        wl.setup()
        setup_wall.append(time.perf_counter() - t0)
        cal = (cal + workloads.calibration_s(3)) / 2
        setup_ref.append(calibrated(setup_wall[-1], cal))
    setup_s = import_ref_s + statistics.median(setup_ref)
    setup_wall_s = import_s + statistics.median(setup_wall)

    detail = {"workload": args.workload, "provenance": provenance(args), "import_s": import_s,
              "setup_repeats_s": setup_wall, "cal_ref_s": workloads.CAL_REF_S}
    if args.trace == 0:
        records, rounds = workloads.measure(wl, args.seconds)
        slots, named = wl.metrics(records)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **slots}
        named = {"setup_wall_s": (setup_wall_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **named}
    else:
        # Untraced and traced rounds alternate, so both see the same machine
        # conditions and their ratio measures the tracing cost.
        tracer = tracing.Tracer()
        plain, traced_records = [], []
        t_start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - t_start < args.seconds:
            plain += workloads.run_round(wl, rounds)
            with tracing.traced(tracer):
                traced_records += workloads.run_round(wl, rounds, tracer)
            rounds += 1
        records = plain + traced_records
        overhead = (sum(r.ref_seconds for r in traced_records)
                    / sum(r.ref_seconds for r in plain)) - 1.0
        units = sum(r.units for r in traced_records)
        summary = tracer.summary()
        names = [m["name"] for m in manifest["per_layer"]]
        values = tracing.layer_metrics(names, summary, units, overhead)
        named = {"trace.spans": (len(tracer.name), "spans"), "trace.ops": (units, "ops")}
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        detail["span_summary"] = summary
    # a figure that could not be measured (every command of a kind failed) is null
    metrics = {m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]]) else None,
                           "unit": m["unit"]}
               for m in manifest["end_to_end" if args.trace == 0 else "per_layer"]}

    failed = [r for r in records if r.error is not None]
    attempted = len(records)
    named["ops_failed_frac"] = (len(failed) / attempted, f"of {attempted} ops")
    cal_ms = [1e3 * r.cal for r in records]
    named["calibration_ms_p50"] = (statistics.median(cal_ms), f"ms, reference {1e3 * workloads.CAL_REF_S:g}")
    detail.update(rounds=rounds, kinds=workloads.kind_stats(records),
                  ops=[(r.kind, r.round, r.seconds, r.cal) for r in records],
                  named=named, metrics=metrics,
                  failures=[(r.kind, r.error) for r in failed[:20]])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str), encoding="utf-8")

    prov = detail["provenance"]
    print(f"# {args.workload}  seed {args.seed} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED})"
          f"  rounds {rounds}  trace {args.trace}")
    print(f"# python {prov['python']}  numpy {prov['numpy']}  nproc {prov['nproc']}  "
          f"blas {prov['blas']['name']} {prov['blas']['version']} threads {prov['blas']['threads']}  "
          f"commit {prov['git_commit']}  src {prov['source_sha256_16']}")
    for name, (value, unit) in named.items():
        print(f"{name:32s} {value:14.6g}  {unit}")
    for kind, error in detail["failures"]:
        print(f"FAILED {kind}: {error}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
