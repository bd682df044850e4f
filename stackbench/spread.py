#!/usr/bin/env python3
"""Run stackbench on several seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 stackbench/spread.py --workload search-d32 --seeds 1-10 --seconds 10
    python3 stackbench/spread.py --workload fleet-d32 --seeds 1,2,3 --trace 1

For every metric it prints the median over the runs and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median. That spread is what BENCHMARK.json's bounds
are checked against. Runs are sequential; each one is a separate process.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "stackbench/Cargo.toml", "--"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        cmd = COMMAND + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        flag = "" if result["correct"] and result["failed"] == 0 else "  INCORRECT"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flag}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{'metric':32} {'median':>14} {'spread':>8}  unit  values")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = f"{'-':>8}"
        shown = " ".join(f"{v:.4g}" for v in vals)
        print(f"{name:32} {med:14.6g} {spread}  {units[name]}  {shown}")


if __name__ == "__main__":
    main()
