"""Run every workload and print the benchmark's tables.

    python3 bench/report.py [--runs 3] [--seed 0] [--seconds 25]

Runs bench/run.py one process at a time: `--runs` untraced runs per
workload (seeds seed, seed+1, ...) and one traced run.  Prints each
end-to-end metric and each workload-specific latency as the median and
quartiles over runs with the run count, the failed share, the per-layer
table, the tracing overhead (a traced pass minus the untraced pass run just
before it in the same process, per workload) and the environment record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign", "transport", "pathwise")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l.split(" ", 1)[1]) for l in lines
                  if l.startswith("bench-detail "))
    return json.loads(lines[-1]), detail


def spread(values):
    vals = sorted(values)
    if len(vals) == 1:
        return f"{vals[0]:.6g}  (n 1)"
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return (f"{med:.6g}  [q1 {q1:.6g}, q3 {q3:.6g}]  "
            f"(n {len(vals)}, IQR/median {(q3 - q1) / med:.3f})")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    walls = {}
    env = None
    for w in WORKLOADS:
        results = [run(w, args.seed + i, args.seconds, 0) for i in range(args.runs)]
        env = results[0][1]["env"]
        print(f"\n== {w} ({args.runs} runs, {args.seconds:g} s each)")
        names = list(results[0][0]["metrics"]) + sorted(
            k for k in results[0][1]["detail"]
            if k.startswith(("w_", "raw_")) or k == "calibrate_s")
        for name in names:
            vals = [d["detail"][name]["median"] for _, d in results]
            unit = results[0][0]["metrics"].get(name, {}).get("unit", "s")
            print(f"  {name:16s} {unit:4s} {spread(vals)}")
        walls[w] = statistics.median(d["detail"]["raw_wall_s"]["median"] for _, d in results)
        attempted = sum(r["attempted"] for r, _ in results)
        failed = sum(r["failed"] for r, _ in results)
        print(f"  failed_share     {failed / attempted:.4f}  ({failed} of {attempted} operations)")
        for _, d in results:
            for msg in sorted(set(d["errors"] + d["wrong"])):
                print(f"    seed {d['seed']}: {msg}")

    result, _ = run(WORKLOADS[0], args.seed, args.seconds, 1)
    print(f"\n== per-layer metrics (traced pass of each workload, seed {args.seed})")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("\n== tracing overhead (traced minus untraced pass, same process)")
    for w in WORKLOADS:
        over = result["metrics"][f"trace.{w}.overhead_s"]["value"]
        traced = result["metrics"][f"trace.{w}.wall_s"]["value"]
        print(f"  {w:10s} {over:+.3f} s of {traced:.3f} s traced "
              f"(untraced runs' median raw_wall_s {walls[w]:.3f} s)")
    print("\n== environment")
    print(f"  cpu_model: {cpu_model()}")
    for key, val in env.items():
        print(f"  {key}: {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
