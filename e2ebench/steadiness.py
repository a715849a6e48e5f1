#!/usr/bin/env python3
"""Runs the benchmark back to back with distinct seeds, each run as long as
BENCHMARK.json's `run_seconds`, and reports per end-to-end metric the
median and the interquartile spread as a share of the median. A metric is
`ok` when its spread is within its bound in BENCHMARK.json (`setup_s` is
not judged by its spread).

    python3 e2ebench/steadiness.py --workload paper-synth --runs 10 [--first-seed 1]

Run from the repository root.
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
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"  {'metric':<30} {'median':>12} {'IQR/median':>11} {'bound':>6}  ok")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        ok = "-" if name == "setup_s" or bound is None else ("yes" if spread <= bound else "NO")
        print(f"  {name:<30} {med:>12.5g} {spread:>11.4f} {bound if bound is not None else '':>6}  {ok}")


if __name__ == "__main__":
    main()
