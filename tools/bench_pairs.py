#!/usr/bin/env python3
"""Alternating-pair comparison of two checkouts on the repository benchmark.

Usage:
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --seed S --pairs N
    python3 tools/bench_pairs.py --self-test

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in each checkout, N times each, alternating which side goes first from
pair to pair so slow drift of the host lands on both sides alike. T is
the benchmark's own run length (`run_seconds` in BENCHMARK.json). Each
side first gets one short untimed run that builds it.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, and how many pairs the change won (strictly better
in the metric's direction). A metric is marked "gain" when the change
won at least nine pairs in ten and its median beats the parent's by more
than the parent's interquartile range; "loss" is the same test the other
way. Exit 0 when every run's outputs were correct, 1 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP_SECONDS = 1.0
RUN_TIMEOUT_S = 1200


# ---- Arithmetic (self-tested) ---------------------------------------------

def quartiles(values):
    """(q1, median, q3) as perfbench/run.py computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def improvement(parent, change, better):
    """How far `change` beats `parent` in the metric's direction (> 0 is
    better, < 0 worse)."""
    return parent - change if better == "lower" else change - parent


def wins(parent_runs, change_runs, better):
    """Pairs in which the change is strictly better."""
    return sum(1 for p, c in zip(parent_runs, change_runs)
               if improvement(p, c, better) > 0)


def verdict(parent_runs, change_runs, better):
    """'gain', 'loss' or '' (within noise) for one metric."""
    n = len(parent_runs)
    needed = math.ceil(0.9 * n)
    q1, median, q3 = quartiles(parent_runs)
    spread = q3 - q1
    moved = improvement(median, statistics.median(change_runs), better)
    if wins(parent_runs, change_runs, better) >= needed and moved > spread:
        return "gain"
    if wins(change_runs, parent_runs, better) >= needed and -moved > spread:
        return "loss"
    return ""


def order(pair):
    """Which side runs first in pair `pair` (0-based)."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def self_test():
    problems = []

    def check(name, got, want):
        if isinstance(want, float):
            ok = math.isclose(got, want, abs_tol=1e-9)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{name}: got {got!r}, want {want!r}")

    q1, q2, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    check("q1", q1, 2.75)
    check("median", q2, 5.5)
    check("q3", q3, 8.25)
    check("improvement lower", improvement(5.0, 3.0, "lower"), 2.0)
    check("improvement higher", improvement(5.0, 3.0, "higher"), -2.0)
    parent = [5.0, 5.2, 4.9, 5.1, 5.0, 5.3, 4.8, 5.0, 5.1, 5.2]
    faster = [3.3, 3.4, 3.2, 3.3, 5.5, 3.1, 3.3, 3.2, 3.4, 3.3]
    check("wins lower", wins(parent, faster, "lower"), 9)
    check("wins higher", wins(parent, faster, "higher"), 1)
    # A tie is not a win.
    check("ties", wins([1.0, 2.0], [1.0, 1.0], "lower"), 1)
    check("gain", verdict(parent, faster, "lower"), "gain")
    check("loss", verdict(faster, parent, "lower"), "loss")
    check("higher is better", verdict(parent, faster, "higher"), "loss")
    # Nine wins but a shift inside the parent's spread: noise.
    wide = [1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0]
    check("inside spread",
          verdict(wide, [v - 0.5 for v in wide], "lower"), "")
    # A large shift that wins only eight pairs of ten: not enough.
    eight = [3.3] * 8 + [6.0, 6.0]
    check("eight of ten", verdict(parent, eight, "lower"), "")
    check("identical", verdict(parent, list(parent), "lower"), "")
    check("order even", order(0), ("parent", "change"))
    check("order odd", order(3), ("change", "parent"))
    for problem in problems:
        print("self-test:", problem, file=sys.stderr)
    print("self-test", "FAILED" if problems else "ok")
    return 1 if problems else 0


# ---- Runs -------------------------------------------------------------------

def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; returns its parsed last line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: no result from {checkout} "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="parent checkout")
    parser.add_argument("change", nargs="?", help="changed checkout")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload) or args.pairs < 2:
        parser.error("PARENT_DIR, CHANGE_DIR, --workload and --pairs >= 2 "
                     "are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = float(benchmark["run_seconds"])
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}

    for side in ("parent", "change"):
        run_once(dirs[side], args.workload, args.seed, WARMUP_SECONDS)

    runs = {"parent": [], "change": []}
    correct = True
    for pair in range(args.pairs):
        for side in order(pair):
            result = run_once(dirs[side], args.workload, args.seed, seconds)
            correct = correct and bool(result["correct"])
            runs[side].append({name: entry["value"] for name, entry
                               in result["metrics"].items()})
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"run {seconds:g} s  (median [q1, q3])")
    print(f"  {'metric':24s} {'parent':>30s} {'change':>30s}  wins  verdict")
    for name, better in directions.items():
        if any(name not in r for side in runs for r in runs[side]):
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        cells = []
        for values in (parent, change):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"  {name:24s} {cells[0]:>30s} {cells[1]:>30s}  "
              f"{wins(parent, change, better):2d}/{args.pairs}  "
              f"{verdict(parent, change, better)}")
    if not correct:
        print("bench_pairs: an output check failed in at least one run")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
