"""kwslite benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 kwsbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads are described in kwsbench/README.md. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line before
it, and .kwsbench_out/<workload>-seed<seed>-trace<t>.json, hold the full
report: environment, per-architecture timings, per-layer table and problems.
Times are in reference seconds (see reference.py); wall-clock figures are in
the report too.
Exits 2 without a result when the kwslite sources are not next to kwsbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

# BLAS threads are a benchmark setting: with the default (one per core) the
# figures spread much wider between runs on a two-core machine
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 5
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".kwsbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scan", "stream", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports kwslite and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import kwslite"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def environment(np, args, workload, overhead) -> dict:
    import reference

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config instead
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "trace_overhead": overhead,
        "reference_nominal_s": reference.NOMINAL_S,
        **workload.environment(),
    }


def measure(workload, seconds: float, tracer):
    """Set up and warm up SETUP_REPEATS times, then run rounds until `seconds` pass.

    Each set-up is a fresh interpreter importing kwslite, the workload's input
    preparation and a warm-up pass, timed between two passes of the reference
    loop; setup_s is their median in reference seconds, setup_wall_s in wall
    seconds.

    A round runs one operation per architecture. In a traced run, even rounds
    are traced and odd rounds are not, which measures the tracing overhead.
    """
    import reference
    from workloads import traced

    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference.seconds()
        probe = import_seconds()
        start = time.perf_counter()
        with traced(tracer, "setup"):
            workload.prepare()
        workload.warmup()
        wall = probe + time.perf_counter() - start
        setups.append((reference.scale(wall, (before + reference.seconds()) / 2), wall))
    setup = {"setup_s": statistics.median(s for s, _ in setups),
             "setup_wall_s": statistics.median(w for _, w in setups)}

    outcomes = []
    loop_start = time.perf_counter()
    index = 0
    while True:
        for arch in workload.archs:
            if index > 0 and time.perf_counter() - loop_start >= seconds:
                return setup, outcomes + workload.finish(outcomes)
            use = tracer if tracer is not None and index % 2 == 0 else None
            outcomes.append(workload.run(arch, index, use))
        index += 1


def summarize(outcomes, archs) -> tuple[dict, dict, dict]:
    """Per-architecture rtf (median over timed units), timing summaries and unit times.

    rtf and the returned unit times are in reference seconds (reference.py);
    per_arch also carries the wall-clock rtf and unit times.
    """
    import reference
    from report import timing_summary

    rtf, per_arch, unit_times = {}, {}, {}
    for arch in archs:
        mine = [o for o in outcomes if o.arch == arch and o.times]
        # traced operations are slower; use them only when a run has no other
        mine = [o for o in mine if not o.traced] or mine
        wall = [t for o in mine for t in o.times]
        times = [reference.scale(t, r) for o in mine for t, r in zip(o.times, o.references)]
        audio = mine[0].audio_seconds
        rtf[arch] = statistics.median(audio / t for t in times)
        per_arch[arch] = {"rtf": rtf[arch], "unit_ms": timing_summary([1e3 * t for t in times]),
                          "rtf_wall": statistics.median(audio / t for t in wall),
                          "unit_wall_ms": timing_summary([1e3 * t for t in wall]),
                          "reference_ms": timing_summary([1e3 * r for o in mine for r in o.references]),
                          "audio_seconds_per_unit": audio}
        unit_times[arch] = times
    return rtf, per_arch, unit_times


def trace_overhead(outcomes, archs) -> float | None:
    """Traced over untraced median unit time (reference seconds), summed over architectures, minus one."""
    import reference

    traced, plain = 0.0, 0.0
    for arch in archs:
        a = [t / r for o in outcomes if o.arch == arch and o.traced for t, r in zip(o.times, o.references)]
        b = [t / r for o in outcomes if o.arch == arch and not o.traced for t, r in zip(o.times, o.references)]
        if not a or not b:
            return None
        traced += statistics.median(a)
        plain += statistics.median(b)
    return traced / plain - 1.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kwslite" / "__init__.py").is_file():
        print(f"kwsbench: no kwslite sources at {SRC}; run from a kwslite checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import kwslite

    if Path(kwslite.__file__).resolve().parent != (SRC / "kwslite").resolve():
        print(f"kwsbench: imported kwslite from {kwslite.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import report
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        setup, outcomes = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [f"{o.arch}: {p}" for o in outcomes for p in o.problems]
    rtf, per_arch, unit_times = summarize(outcomes, workload.archs)
    full = {
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{f"rtf.{a}": rtf[a] for a in workload.archs},
        "error_rate": failed / attempted,
        **workload.figures(unit_times),
    }
    overhead = None
    layers = {}
    if tracer is not None:
        overhead = trace_overhead(outcomes, workload.archs)
        layers, table, unattributed = report.layer_table(tracer, outcomes)
        full["layer_table"] = table
        full["unattributed_tensor_s"] = unattributed
        full["untraced_functions"] = tracer.missing
    detail = {
        "environment": environment(np, args, workload, overhead),
        "metrics": full,
        "per_arch": per_arch,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "wall_s": time.perf_counter() - PROCESS_START,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        report.write_spans(tracer, OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz")

    if args.trace:
        names = report.per_layer_names()
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in names}
    else:
        metrics = {name: {"value": full[name], "unit": unit} for name, unit, _ in report.end_to_end_names()}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
