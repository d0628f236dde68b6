#!/usr/bin/env python3
"""Build and run the steady Janus simulator benchmark.

    python3 perfbench/run.py --workload fig9_c8 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The script configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the driver binary once.
Build output goes to stderr; the driver's stdout passes through, and
its last line is the JSON result. The exit status is the driver's
(1 when an output check failed), or non-zero when the build fails.

Extra flags: --smoke (tiny run lengths, for perfbench/selftest.py).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig9_c8", "sharded_s4", "tenants_openloop")
# The driver measures for --seconds, then finishes its last repeat and
# its cross-checks (and, traced, the journal replay), which take well
# under this margin; the timeout only stops a hung process.
RUN_MARGIN_S = 120


def git_describe(root):
    """`git describe` of the tree, or "none" outside a repository.

    The ceiling keeps git from searching above the tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    """Configure and build the driver; return its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir)]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "janus_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "janus_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--git-describe={git_describe(root)}"]
    if args.trace:
        cmd.append(f"--spans-out={build_dir / f'TRACE_perfbench_{args.workload}.json'}")
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    timeout = args.seconds + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, cwd=root, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {timeout} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
