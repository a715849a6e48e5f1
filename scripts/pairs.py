#!/usr/bin/env python3
"""Paired end-to-end comparison of a parent commit against the working tree.

    python3 scripts/pairs.py [--parent REV] [--seeds 701-710] \
        [--workload NAME ...] [--seconds S] [--work DIR] [--parent-tree DIR] \
        [--trace] [--claim METRIC@WORKLOAD ...]

Run from the repository root. The parent (default HEAD) is checked out with
`git worktree add --detach` into the work directory (default `.bench_pairs`)
unless --parent-tree names an existing checkout of it; the worktree is
removed when the script exits. Each side's `e2ebench` is built into its own
CARGO_TARGET_DIR with --offline --locked and run from its own tree.

For every workload (default: all of BENCHMARK.json's) and every seed, the
two sides run back to back as one pair, and which side runs first
alternates from pair to pair. Per end-to-end metric the script prints both
medians, both q1-q3 ranges, in how many pairs the change was better, and
whether the medians differ by more than the parent's q1-q3 spread (the
claim test). It also prints the no-regression verdict against the metric's
`bound` in BENCHMARK.json: the change of the medians relative to the
parent's, positive when worse by the metric's `better` direction, and
  WORSE       when that change is past `bound`;
  unresolved  when the parent's q1-q3 spans more than `bound` of its median,
              unless every change run beats every parent run;
  ok          otherwise.

Each side's peak resident set size per workload — the `peak RSS N MiB`
an untraced e2ebench run prints on stderr — follows the table as both
medians and q1-q3 ranges, with no verdict: it is printed, not gated. So
does the work each run did in its fixed time, since a faster side keeps
more generated cases and so reads as more memory: diagnoses per second
from paper-synth's and deep-history's `N diagnoses in S s timed`, and the
request count from served-warm's `N requests by C clients`.

--claim METRIC@WORKLOAD (repeatable) tests a claimed gain the way the
benchmark does. After that workload's table the script prints `claim met`
or `claim not met: <reason>`. The claim holds when the change is better in
at least 9/10 of the pairs run (a tie counts for neither side) and the
medians differ by more than the parent's q1-q3 spread, in the direction of
the metric's `better` field in BENCHMARK.json.

With --trace every run is traced (`--trace 1`), so it reports the
per-layer metrics instead of the end-to-end ones. Per metric the script then
prints both medians and both q1-q3 ranges only: traced runs are not gated,
so there are no verdicts. The checks below still apply; a traced run
reports none of the exact-compared metrics, so only `correct` and `failed`
can fail it.

Exit status 1 when any run reports `correct: false` or `failed > 0`, when
new executions, evaluations, precision or recall differ within a pair on
paper-synth or deep-history, when any verdict is WORSE, or when a claim is
not met; 2 when a build fails or a claim names a workload the run leaves
out.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_METRICS = ("new_executions_per_diagnosis", "evaluations_per_diagnosis",
                 "precision", "recall")
EXACT_WORKLOADS = ("paper-synth", "deep-history")
PEAK_RSS = re.compile(r"peak RSS ([0-9.]+) MiB")
DIAGNOSES = re.compile(r"(\d+) diagnoses in ([0-9.]+) s timed")
REQUESTS = re.compile(r"(\d+) requests by \d+ clients")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def build(tree, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    print(f"building {tree} into {target}", file=sys.stderr)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(tree, "e2ebench", "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if done.returncode != 0:
        print(f"pairs: building {tree} failed", file=sys.stderr)
        sys.exit(2)
    return os.path.join(target, "release", "e2ebench")


def run_once(exe, tree, workload, seed, seconds, trace):
    """The run's JSON result, with the figures its stderr reports but does
    not gate under "unjudged" (see `unjudged`); None when the run failed.
    The run's stderr is passed on."""
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    result["unjudged"] = unjudged(out.stderr)
    return result


def unjudged(stderr):
    """The printed-only figures in a run's stderr, by label: its peak RSS
    (MiB) and the work of its timed phase (diagnoses/s, or requests)."""
    found = {}
    if rss := PEAK_RSS.findall(stderr):
        found["peak RSS MiB"] = float(rss[-1])
    if done := DIAGNOSES.findall(stderr):
        n, s = done[-1]
        found["diagnoses/s"] = int(n) / float(s)
    if done := REQUESTS.findall(stderr):
        found["requests"] = int(done[-1])
    return found


def report_unjudged(pairs, width):
    """Prints each side's printed-only figures as median (q1-q3), with no
    verdict; a figure some run did not print is left out."""
    for label in ("peak RSS MiB", "diagnoses/s", "requests"):
        parent = [p["unjudged"].get(label) for p, _ in pairs]
        change = [c["unjudged"].get(label) for _, c in pairs]
        if None in parent or None in change:
            continue
        print(f"  {label + ' (not gated)':<{width}} {summary(parent)[2]:>32} "
              f"{summary(change)[2]:>32}")


def summary(values):
    """Median and q1-q3 of `values`, and their rendering."""
    med = statistics.median(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (med, med))
    return med, q3 - q1, f"{med:.5g} ({q1:.5g}-{q3:.5g})"


def verdict(parent, change, lower, bound):
    """The relative change of the medians (positive = worse) and the
    no-regression verdict against `bound`; see the module docs."""
    p_med, p_iqr, _ = summary(parent)
    c_med = statistics.median(change)
    worse = (c_med - p_med) if lower else (p_med - c_med)
    if p_med:
        rel = worse / abs(p_med)
    else:
        rel = math.inf if worse > 0 else 0.0
    if rel > bound:
        return rel, "WORSE"
    spread = p_iqr / abs(p_med) if p_med else 0.0
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > bound and not beats_all:
        return rel, "unresolved"
    return rel, "ok"


def claim_failure(parent, change, lower):
    """Why a claimed gain on one metric does not hold by the benchmark's
    rule, or None when it holds; see the module docs."""
    n = len(parent)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p_med, p_iqr, _ = summary(parent)
    c_med = statistics.median(change)
    gain = (p_med - c_med) if lower else (c_med - p_med)
    reasons = []
    if 10 * wins < 9 * n:
        reasons.append(f"better in {wins}/{n} pairs, fewer than 9/10")
    if gain <= p_iqr:
        reasons.append(f"the medians moved {gain:+.5g} the better way, not past "
                       f"the parent's q1-q3 spread {p_iqr:.5g}")
    return "; ".join(reasons) or None


def report_claim(metric, pairs, metrics):
    """Prints whether the claim on `metric` holds over `pairs`; returns the
    failure line when it does not."""
    if metric not in pairs[0][0]["metrics"]:
        reason = f"{metric} is not among these runs' metrics"
    else:
        parent = [p["metrics"][metric]["value"] for p, _ in pairs]
        change = [c["metrics"][metric]["value"] for _, c in pairs]
        lower = metrics.get(metric, {}).get("better", "lower") == "lower"
        reason = claim_failure(parent, change, lower)
    if reason is None:
        print(f"  claim {metric}: claim met")
        return None
    print(f"  claim {metric}: claim not met: {reason}")
    return f"claim {metric}: {reason}"


def report(workload, pairs, metrics):
    """Prints the workload's table; returns the metrics judged WORSE."""
    print(f"{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<30} {'parent median (q1-q3)':>32} "
          f"{'change median (q1-q3)':>32} {'better':>7} {'gap>IQR':>8} "
          f"{'vs bound':>20}")
    worse = []
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        spec = metrics.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_med, p_iqr, p_text = summary(parent)
        c_med, _, c_text = summary(change)
        gap = "yes" if abs(c_med - p_med) > p_iqr else "no"
        judged = "-"
        if "bound" in spec:
            rel, word = verdict(parent, change, lower, spec["bound"])
            judged = f"{rel:+.1%} {word}"
            if word == "WORSE":
                worse.append(f"{workload} {name}: median {rel:+.1%} worse, "
                             f"past its bound {spec['bound']:.0%}")
        print(f"  {name:<30} {p_text:>32} {c_text:>32} "
              f"{f'{wins}/{len(pairs)}':>7} {gap:>8} {judged:>20}")
    report_unjudged(pairs, 30)
    return worse


def report_trace(workload, pairs):
    """Prints the workload's per-layer table: both medians and q1-q3
    ranges, and no verdicts."""
    print(f"{workload}: {len(pairs)} traced pairs")
    print(f"  {'metric':<40} {'parent median (q1-q3)':>32} "
          f"{'change median (q1-q3)':>32}")
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        print(f"  {name:<40} {summary(parent)[2]:>32} {summary(change)[2]:>32}")
    report_unjudged(pairs, 40)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--work", default=os.path.join(ROOT, ".bench_pairs"))
    ap.add_argument("--parent-tree")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    claims = []
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if workload not in workloads:
            print(f"pairs: --claim {claim} names a workload this run leaves out",
                  file=sys.stderr)
            return 2
        claims.append((metric, workload))
    work = os.path.abspath(args.work)
    os.makedirs(work, exist_ok=True)

    # SIGTERM unwinds like Ctrl-C, so the worktree is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    worktree = None
    parent_tree = args.parent_tree and os.path.abspath(args.parent_tree)
    failures = []
    try:
        if parent_tree is None:
            worktree = parent_tree = os.path.join(work, "parent-src")
            if os.path.exists(worktree):
                shutil.rmtree(worktree)
            subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=True)
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                            worktree, args.parent], check=True, stdout=sys.stderr)
        sides = {
            "parent": (build(parent_tree, os.path.join(work, "parent-target")), parent_tree),
            "change": (build(ROOT, os.path.join(work, "change-target")), ROOT),
        }
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                result = {}
                for side in order:
                    exe, tree = sides[side]
                    r = run_once(exe, tree, workload, seed, seconds, args.trace)
                    if r is None or not r["correct"] or r["failed"]:
                        failures.append(f"{workload} seed {seed} {side}: "
                                        + ("no result" if r is None else
                                           f"correct={r['correct']} failed={r['failed']}"))
                    result[side] = r
                if None in result.values():
                    continue
                p, c = result["parent"], result["change"]
                print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                    f"{k}={p['metrics'][k]['value']:.4g}->{c['metrics'][k]['value']:.4g}"
                    for k in p["metrics"]), file=sys.stderr)
                if workload in EXACT_WORKLOADS:
                    for k in EXACT_METRICS:
                        if k in p["metrics"] and \
                                p["metrics"][k]["value"] != c["metrics"][k]["value"]:
                            failures.append(
                                f"{workload} seed {seed}: {k} {p['metrics'][k]['value']}"
                                f" (parent) != {c['metrics'][k]['value']} (change)")
                pairs.append((p, c))
            if pairs and args.trace:
                report_trace(workload, pairs)
            elif pairs:
                failures.extend(report(workload, pairs, metrics))
            for metric in (m for m, w in claims if w == workload):
                failed = (report_claim(metric, pairs, metrics) if pairs
                          else f"claim {metric}: no pairs ran")
                if failed:
                    failures.append(f"{workload} {failed}")
    finally:
        if worktree is not None:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", worktree])
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
