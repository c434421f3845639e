#!/usr/bin/env python3
"""Run one workload N times, each with another seed, and print each
metric's median, quartiles and spread (interquartile range as a share of
the median).

    python3 perfbench/steady.py --workload adapt --runs 10 [--seconds 30]

Run it from the repository root. Seeds run from 1 to N, untraced. Runs
are sequential, so they do not compete for the machine. It stops at the
first run that exits non-zero, fails an output check or fails an op.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()

    values, attempted = {}, 0
    for i in range(args.runs):
        seed = 1 + i
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            print(f"seed {seed}: output check failed", file=sys.stderr)
            return 1
        if res["failed"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed", file=sys.stderr)
            return 1
        attempted += res["attempted"]
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {args.seconds}s, {attempted} ops, none failed")
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(values):
        unit, xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
