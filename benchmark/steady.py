#!/usr/bin/env python3
"""Repeat one benchmark workload over several seeds and print, for every
metric, its median and its spread (the distance between the first and third
quartiles as a share of the median).  This is the evidence behind the bounds
in BENCHMARK.json.  Run from the repository root:

    python3 benchmark/steady.py --workload static-small --runs 10 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    values = {}
    units = {}
    failed_shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["bash", "benchmark/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit("seed %d: benchmark exited %d" % (seed, out.returncode))
        result = json.loads(lines[-1])
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in sorted(result["metrics"].items()))),
            flush=True)

    print("%-34s %14s %8s  %s" % ("metric", "median", "spread", "unit"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med != 0:
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print("%-34s %14.4f %8.3f  %s" % (name, med, spread, units[name]))
    print("failed share per run:", sorted(set(failed_shares)))


if __name__ == "__main__":
    main()
