"""Run the benchmark on several seeds, one run at a time, and report the spread.

Run from the repository root:

    python3 kwsbench/spread.py --workloads scan stream train --seeds 300-309 --seconds 35
    python3 kwsbench/spread.py ... --baseline kwsbench/baseline/BENCH_baseline.json --commit <sha>

For each end-to-end metric it prints the median of the runs' values and the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median, next to the metric's bound from BENCHMARK.json; a
spread above a third of the bound is marked. With --baseline it also makes one
--trace 1 run per workload, at the first seed, and writes medians, quartiles,
values, per-layer figures and the environment to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, "kwsbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="first-last, e.g. 300-309")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--baseline", type=Path)
    p.add_argument("--commit", default="")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    doc = {"commit": args.commit, "run_seconds": args.seconds,
           "how": (f"python3 kwsbench/spread.py --workloads {' '.join(args.workloads)} "
                   f"--seeds {args.seeds[0]}-{args.seeds[-1]} --seconds {args.seconds}: one --trace 0 run "
                   "per seed and workload, one at a time; medians and quartiles are over the runs' values; "
                   f"per_layer is one --trace 1 run at seed {args.seeds[0]}"),
           "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units, attempted, failed, errors = {}, 0, 0, []
        for seed in args.seeds:
            result, detail = run(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            errors.append(detail["metrics"]["error_rate"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            mark = "  > bound/3" if spread > bounds[name] / 3 else ""
            print(f"{workload:7s} {name:18s} median {median:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}{mark}", flush=True)
        print(f"{workload:7s} attempted {attempted} failed {failed}", flush=True)
        entry = {"seeds": args.seeds, "attempted": attempted, "failed": failed, "end_to_end": summary,
                 "report_medians": {"error_rate": statistics.median(errors)}}
        if args.baseline:
            layers, detail = run(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in layers["metrics"].items()}
            entry["environment"] = {k: detail["environment"][k] for k in
                                    ("numpy", "blas", "blas_version", "blas_threads", "nproc", "python",
                                     "reference_nominal_s", "models") if k in detail["environment"]}
        doc["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
