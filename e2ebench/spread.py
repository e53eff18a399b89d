#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --workload W [--seeds 1-10] [--trace 0]

For every metric on the JSON line it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json. Use it
to show that a workload is steady: each end-to-end spread should stay
below a third of its bound. setup_s is the exception: its spread is not
held to its bound, but its median, like every metric's, should not move by
more than the bound between two sets of runs. Exits 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    failed = False
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            failed = True
            continue
        result = json.loads(lines[-1])
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append("%s=%.6g" % (name, m["value"]))
        print("seed %d: %s" % (seed, " ".join(row)))
        sys.stdout.flush()

    print("%-28s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6s" %
              (name, med, q1, q3, spread, "-" if bound is None else bound))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
