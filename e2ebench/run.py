#!/usr/bin/env python3
"""Builds and runs the encodesat end-to-end benchmark.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py            # every workload, untraced then traced
    python3 e2ebench/run.py --selftest # the benchmark's arithmetic tests

Run from the repository root. The first call configures and builds the
library from ../src and the e2ebench binary in Release mode under
$CARGO_TARGET_DIR (default: .bench_build); later calls rebuild only what
changed. Build output goes to stderr, so the last stdout line of a run is
the binary's JSON result. The exit status is the binary's: 0 when every
output passed its check.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["synth_exact", "synth_bounded", "serve_repeat", "serve_unique"]
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "e2ebench")


def build():
    """Configures (once) and builds; returns the build directory or None."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return bdir


def run_workload(bdir, workload, seed, seconds, trace):
    cmd = [os.path.join(bdir, "e2ebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", os.path.relpath(bdir)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build()
    if bdir is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "e2ebench_stats_test")]).returncode
    if args.workload:
        return run_workload(bdir, args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for trace in (0, 1):
        for w in WORKLOADS:
            status |= run_workload(bdir, w, args.seed, args.seconds, trace) != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
