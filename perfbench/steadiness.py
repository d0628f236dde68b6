#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads fig9_c8,...] [--seeds 1,2,...]
                                    [--seconds N]

Runs perfbench/run.py once per (workload, seed), untraced, and prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of the median. A spread
at or above a third of the metric's bound in BENCHMARK.json is marked
"WIDE"; at or above the bound the script exits 1. setup_s is checked
like every other metric.

It then runs seed 97, held back from tuning the benchmark, and prints
its simulated metrics beside those of seed 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMULATED = ("persist_p50_ns", "persist_p99_ns", "sim_makespan_us", "served_frac")
HELD_BACK_SEED = 97


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds) for seed in seeds]
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}")
        print(f"  {'metric':24} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if spread >= bound / 3:
                mark = "WIDE"
            if spread >= bound:
                mark, ok = "OVER", False
            print(f"  {name:24} {med:14.6g} {spread:8.4f} {bound:6.2f} {mark}")
        held = run(workload, HELD_BACK_SEED, args.seconds)
        first = runs[seeds.index(1)] if 1 in seeds else run(
            workload, 1, args.seconds)
        print(f"  simulated, seed 1 vs held-back seed {HELD_BACK_SEED}:")
        for name in SIMULATED:
            print(f"    {name:22} {first[name]:14.6g} {held[name]:14.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
