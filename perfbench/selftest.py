#!/usr/bin/env python3
"""Smoke self-test of the benchmark driver.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny length (--smoke), once
untraced and once traced, and asserts that:
  * every output check passed (correct, failed == 0, exit status 0);
  * every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is emitted, with its unit, as a finite number, and
    nothing else is;
  * a layer a workload bypasses reads 0 there and not where it is used
    (scheduler rounds, IRB hits, group-commit wait);
  * the traced run wrote its spans as trace-event JSON;
  * the untraced and traced runs print the same model_digest;
and that an output check that fails makes the driver exit non-zero
with "correct": false. Uses the build tree perfbench/run.py uses.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

# (workload, metric): expected to be zero (True) or non-zero (False).
BYPASS = {
    ("fig9_c8", "harness.scheduler_rounds"): True,
    ("sharded_s4", "harness.scheduler_rounds"): False,
    ("tenants_openloop", "janus.irb_hits"): True,
    ("fig9_c8", "janus.irb_hits"): False,
    ("fig9_c8", "sim.critpath.group_commit_wait_ns"): True,
    ("tenants_openloop", "sim.critpath.group_commit_wait_ns"): False,
}


def run(args):
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py")]
                         + args, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, json.loads(lines[-1]) if lines else None


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        digests = set()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run(["--workload", name, "--seed", "1",
                                       "--seconds", "1", "--trace",
                                       str(trace), "--smoke"])
            tag = f"{name} --trace {trace}"
            check(code == 0, f"{tag}: exit status {code}")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: {result}")
            check(any(l.startswith("manifest {") for l in lines),
                  f"{tag}: no run manifest")
            digest = [l.split()[2] for l in lines
                      if l.startswith(f"model_digest {name} ")]
            check(len(digest) == 1, f"{tag}: no model_digest")
            digests.add(digest[0])
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            check(set(metrics) == set(wanted),
                  f"{tag}: metric names differ: "
                  f"{sorted(set(metrics) ^ set(wanted))}")
            for m, unit in wanted.items():
                v = metrics[m]
                check(v["unit"] == unit, f"{tag}: {m} unit {v['unit']}")
                check(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"]), f"{tag}: {m} value")
            for (wl, m), zero in BYPASS.items():
                if wl == name and trace == 1:
                    check((metrics[m]["value"] == 0) == zero,
                          f"{tag}: {m} = {metrics[m]['value']}")
            if trace:
                spans = json.loads(
                    (BUILD / f"TRACE_perfbench_{name}.json").read_text())
                check(len(spans["traceEvents"]) > 1, f"{tag}: no spans")
            print(f"selftest ok: {tag} ({len(metrics)} metrics)")
        check(len(digests) == 1,
              f"{name}: untraced and traced model_digest differ: {digests}")

    # A failing output check: corrupted memory must fail validation.
    binary = BUILD / "janus_perfbench"
    out = subprocess.run([str(binary), "--workload=fig9_c8", "--smoke",
                          "--seconds=1", "--inject-failure"],
                         capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(out.returncode != 0 and result["correct"] is False
          and result["failed"] >= 1
          and result["metrics"]["served_frac"]["value"] < 1,
          f"--inject-failure: exit {out.returncode}, {result}")
    print("selftest ok: an injected validation failure exits "
          f"{out.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
