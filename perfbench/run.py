#!/usr/bin/env python3
"""The ARGO repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload matrix50|avionics|resweep_warm \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the tool-chain and the argo_perfbench program from source into
.bench_build/ on first use, runs one workload, checks its outputs and
prints a metric table followed, as the last line of standard output, by
one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
replays every unit layer by layer and reports the per-layer metrics.
Exit 0 when every output check passed; 1 when one failed (the JSON line
is still printed) or when the benchmark could not build or run (no JSON
line); 2 on a usage error.
"""

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
GOLDEN_REPORT = os.path.join(ROOT, "bench", "BENCH_eval.seed.json")
TRACE_SUMMARY = os.path.join(ROOT, "tools", "trace_summary.py")

WORKLOADS = ("matrix50", "avionics", "resweep_warm")
# The seed the baselines in README.md were taken with, and the hold-out
# seed a claimed gain must also hold on.
PRIMARY_SEED = 7
HOLDOUT_SEED = 11

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PROGRAM_TIMEOUT_S = 30

# Self-time span name -> per-layer metric (milliseconds).
LAYER_TIMES = {
    "scenarios.generate": "scenarios.generate_ms",
    "model.compile": "model.compile_ms",
    "transform": "transform.ms",
    "wcet.seq": "wcet.seq_ms",
    "htg.build": "htg.build_ms",
    "htg.expand": "htg.expand_ms",
    "sched.timings": "sched.timings_ms",
    "sched.heft": "sched.heft_ms",
    "sched.contention_oblivious": "sched.contention_oblivious_ms",
    "sched.annealed": "sched.annealed_ms",
    "sched.branch_and_bound": "sched.branch_and_bound_ms",
    "par.build": "par.build_ms",
    "syswcet": "syswcet.ms",
    "sim.step": "sim.step_ms",
    "codegen.emit": "codegen.emit_ms",
    "core.cache.decode": "core.cache.decode_ms",
    "support.disk_cache.load": "support.disk_cache.load_ms",
}
# Spans that group layer calls rather than being a layer themselves.
GROUP_SPANS = {"setup", "cold_fill", "unit", "core.candidate"}
SCHED_POLICY_SPANS = ("sched.heft", "sched.contention_oblivious",
                      "sched.annealed", "sched.branch_and_bound")

END_TO_END_UNITS = {
    "setup_s": "s", "units_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
    "compile_ms_p50": "ms", "compile_ms_p90": "ms",
    "bound_speedup_geomean": "ratio", "tightness_geomean": "ratio",
}


# ---- Arithmetic (self-tested) ---------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Linear-interpolation percentile (the 'inclusive' method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values, candidates=(50, 90, 95, 99, 99.9)):
    """The highest candidate percentile with at least ten samples beyond
    it, as (p, value); None when even the median has fewer."""
    best = None
    for p in candidates:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            best = (p, percentile(values, p))
    return best


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """Span id -> self time: its duration minus the part of its interval
    its child spans cover. `spans` maps id -> (start, end, parent)."""
    children = {}
    for sid, (_, _, parent) in spans.items():
        children.setdefault(parent, []).append(sid)
    result = {}
    for sid, (start, end, _) in spans.items():
        covered = 0.0
        cursor = start
        for cstart, cend, _ in sorted(spans[c] for c in children.get(sid, ())):
            cstart, cend = max(cstart, cursor), min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                cursor = cend
        result[sid] = (end - start) - covered
    return result


def self_test():
    problems = []

    def check(name, got, want, tol=1e-9):
        if abs(got - want) > tol:
            problems.append(f"{name}: got {got}, want {want}")

    q1, q2, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    check("q1", q1, 2.75)
    check("median", q2, 5.5)
    check("q3", q3, 8.25)
    check("median odd", median([5, 1, 3]), 3)
    check("p90 of 1..11", percentile(list(range(1, 12)), 90), 10)
    check("p50 interpolated", percentile([1, 2, 3, 4], 50), 2.5)
    # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only one.
    p, _ = tail_percentile(list(range(1000)))
    check("tail p with 1000 samples", p, 99)
    p, _ = tail_percentile(list(range(100)))
    check("tail p with 100 samples", p, 90)
    if tail_percentile(list(range(15))) is not None:
        problems.append("tail percentile of 15 samples should be None")
    check("geomean", geomean([1, 4, 16]), 4)
    check("geomean of ratios", geomean([2, 0.5]), 1)
    # Unit 0 spans [0, 10] with children [1, 3] and [2, 6] (overlapping,
    # covering [1, 6]) and [8, 9]; the second child has a grandchild
    # [2, 4]; a child of another unit must not count.
    spans = {0: (0, 10, -1), 1: (1, 3, 0), 2: (2, 6, 0), 3: (8, 9, 0),
             4: (2, 4, 2), 5: (20, 30, -1), 6: (21, 22, 5)}
    st = self_times(spans)
    check("self of unit", st[0], 10 - 5 - 1)
    check("self of child", st[2], 4 - 2)
    check("self of leaf", st[1], 2)
    check("self of other root", st[5], 9)
    for problem in problems:
        print("self-test:", problem, file=sys.stderr)
    print("self-test", "FAILED" if problems else "ok")
    return 1 if problems else 0


# ---- Build and run ----------------------------------------------------------

def run_quiet(cmd, timeout, **kwargs):
    """Runs cmd with its output on our stderr (stdout is the result)."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False, **kwargs).returncode


def build(jobs):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise SystemExit(
                f"perfbench: {needed} is missing; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR],
                     BUILD_TIMEOUT_S) != 0:
            raise SystemExit("perfbench: cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD_DIR, "--target", "argo_perfbench",
                  "-j", str(jobs)], BUILD_TIMEOUT_S) != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(BUILD_DIR, "argo_perfbench")


def c_compiler():
    try:
        with open(os.path.join(BUILD_DIR, "c_compiler.txt")) as fh:
            return fh.read().strip() or "cc"
    except OSError:
        return "cc"


# ---- Output checks ---------------------------------------------------------

def check_golden(work, raw):
    """The seed-7 matrix must reproduce the committed report row for row."""
    with open(GOLDEN_REPORT) as fh:
        want = json.load(fh)["rows"]
    with open(os.path.join(work, raw["golden_candidate"])) as fh:
        got = json.load(fh)["rows"]
    if got == want:
        return []
    if len(got) != len(want):
        return [f"seed-7 matrix has {len(got)} rows, committed {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    return [f"seed-7 matrix: {len(bad)} rows differ from "
            f"bench/BENCH_eval.seed.json, first {got[bad[0]]}"]


def check_emitted(work, raw):
    """Each app's emitted C must print exactly the IR evaluator's output."""
    failures = []
    cc = c_compiler()
    for rel in raw["emitted"]:
        src = os.path.join(work, rel)
        prog = os.path.join(src, "prog")
        cmd = [cc, "-std=c11", "-O1", "-fno-strict-aliasing"]
        cmd += sorted(glob.glob(os.path.join(src, "*.c")))
        cmd += ["-lm", "-o", prog]
        if run_quiet(cmd, PROGRAM_TIMEOUT_S) != 0:
            failures.append(f"{rel}: emitted C does not compile")
            continue
        out = subprocess.run([prog], capture_output=True, text=True,
                             timeout=PROGRAM_TIMEOUT_S, check=False)
        with open(os.path.join(src, "expected.txt")) as fh:
            expected = fh.read()
        if out.returncode != 0 or out.stdout != expected:
            failures.append(f"{rel}: emitted program output differs from "
                            "codegen::referenceOutputs")
    return failures


def check_trace(path):
    out = subprocess.run([sys.executable, TRACE_SUMMARY, "--validate", path],
                         capture_output=True, text=True,
                         timeout=PROGRAM_TIMEOUT_S, check=False)
    if out.returncode != 0:
        return ["trace_summary.py --validate: " +
                (out.stdout + out.stderr).strip()[:300]]
    return []


# ---- Metrics ---------------------------------------------------------------

def end_to_end(raw):
    walls, units = raw["pass_wall_s"], raw["pass_units"]
    if raw["workload"] == "matrix50":
        # Each pass is a different seed's matrix: rate over all of them.
        units_per_s = sum(units) / sum(walls)
        cpu_s = sum(raw["pass_cpu_s"]) / len(raw["pass_cpu_s"])
    else:
        units_per_s = median([u / w for u, w in zip(units, walls)])
        cpu_s = median(raw["pass_cpu_s"])
    return {
        "setup_s": median(raw["setup_s"]),
        "units_per_s": units_per_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "compile_ms_p50": percentile(raw["latency_ms"], 50),
        "compile_ms_p90": percentile(raw["latency_ms"], 90),
        "bound_speedup_geomean": geomean(raw["bound_speedup"]),
        "tightness_geomean": geomean(raw["tightness"]),
    }


def per_layer(raw, trace):
    """Per-layer metrics from the replay's spans and the raw counters.
    Returns (metrics, units) with units keyed like metrics."""
    events = trace["traceEvents"]
    spans = {ev["args"]["id"]: (ev["ts"], ev["ts"] + ev["dur"],
                                ev["args"]["parent"]) for ev in events}
    selfs = self_times(spans)
    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name], units[name] = value, unit

    def named(name):
        return [ev for ev in events if ev["name"] == name]

    def arg_sum(name, key):
        return float(sum(ev["args"][key] for ev in named(name)))

    for span, metric in LAYER_TIMES.items():
        put(metric, sum(selfs[ev["args"]["id"]] for ev in named(span)) / 1e3,
            "ms")
    put("transform.calls", len(named("transform")), "count")
    put("transform.ir_bytes_out", arg_sum("transform", "ir_bytes_out"),
        "bytes")
    put("htg.expand_calls", len(named("htg.expand")), "count")
    put("htg.tasks_out", arg_sum("htg.expand", "tasks_out"), "count")
    put("sched.timings_tasks", arg_sum("sched.timings", "tasks"), "count")
    put("sched.calls", sum(len(named(s)) for s in SCHED_POLICY_SPANS),
        "count")
    bnb = named("sched.branch_and_bound")
    labels = [ev["args"]["label"] for ev in bnb]
    put("sched.branch_and_bound.budget_ratio",
        sum("(budget)" in s for s in labels) / len(bnb) if bnb else 0.0,
        "ratio")
    put("sched.branch_and_bound.fallback_ratio",
        sum("fallback" in s for s in labels) / len(bnb) if bnb else 0.0,
        "ratio")
    put("syswcet.fixpoint_iterations",
        arg_sum("syswcet", "fixpoint_iterations"), "count")
    put("sim.steps", len(named("sim.step")), "count")
    put("codegen.emit_bytes", arg_sum("codegen.emit", "emit_bytes"), "bytes")
    put("core.candidates", len(named("core.candidate")), "count")
    cache = raw["cache"]
    put("core.cache.lookups", cache["lookups"], "count")
    put("core.cache.hit_ratio",
        cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0, "ratio")
    put("core.cache.inflight_waits", cache["inflight_waits"], "count")
    disk = raw.get("disk") or {"hits": 0, "rejects": 0, "stores": 0}
    put("support.disk_cache.hits", disk["hits"], "count")
    put("support.disk_cache.rejects", disk["rejects"], "count")
    put("support.disk_cache.stores", disk["stores"], "count")

    threads, wall = raw["threads"], raw["e2e_wall_s"]
    put("scenarios.eval.busy_ratio", raw["e2e_cpu_s"] / (threads * wall),
        "ratio")
    unit_spans = named("unit")
    put("scenarios.eval.tail_ratio",
        max(ev["dur"] for ev in unit_spans) / 1e6 / wall, "ratio")
    layer_self = sum(selfs[ev["args"]["id"]] for ev in events
                     if ev["args"]["unit"] >= 0
                     and ev["name"] not in GROUP_SPANS)
    put("trace.coverage", layer_self / 1e6 / raw["replay_wall_s"], "ratio")
    return metrics, units


def not_applicable(metrics):
    """Per-layer metrics whose layer the workload never calls; they read 0."""
    calls = {
        "scenarios.generate": metrics["scenarios.generate_ms"],
        "model.": metrics["model.compile_ms"],
        "transform.": metrics["transform.calls"],
        "wcet.": metrics["wcet.seq_ms"],
        "sched.timings": metrics["sched.timings_tasks"],
        "sched.heft": metrics["sched.heft_ms"],
        "sched.contention_oblivious": metrics["sched.contention_oblivious_ms"],
        "sched.annealed": metrics["sched.annealed_ms"],
        "sched.branch_and_bound": metrics["sched.branch_and_bound_ms"],
        "sched.calls": metrics["sched.calls"],
        "syswcet.": metrics["syswcet.ms"],
        "codegen.": metrics["codegen.emit_ms"],
        "core.cache.decode": metrics["core.cache.decode_ms"],
        "core.cache.": metrics["core.cache.lookups"],
        "support.disk_cache.": metrics["support.disk_cache.hits"]
                               + metrics["support.disk_cache.stores"],
    }
    idle = []
    for name in metrics:
        # The longest matching prefix decides.
        prefixes = [p for p in calls if name.startswith(p)]
        if prefixes and not calls[max(prefixes, key=len)]:
            idle.append(name)
    return idle


# ---- Main ------------------------------------------------------------------

def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED,
                        help=f"workload seed (baselines: {PRIMARY_SEED}, "
                             f"hold-out: {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload, a seed >= 0 and --seconds > 0 are required")

    try:
        threads = min(4, len(os.sched_getaffinity(0)))
    except AttributeError:
        threads = min(4, os.cpu_count() or 1)
    binary = build(threads)

    work = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--threads", str(threads),
           "--dir", work]
    if args.trace:
        cmd.append("--trace")
    if run_quiet(cmd, RUN_TIMEOUT_S) != 0:
        raise SystemExit("perfbench: argo_perfbench failed")
    with open(os.path.join(work, "raw.json")) as fh:
        raw = json.load(fh)

    failures = list(raw["failures"])
    attempted = int(raw["attempted"])
    if args.trace:
        trace_path = os.path.join(work, "trace.json")
        attempted += 1
        failures += check_trace(trace_path)
        with open(trace_path) as fh:
            metrics, units = per_layer(raw, json.load(fh))
    else:
        if args.workload == "matrix50":
            attempted += 1
            failures += check_golden(work, raw)
        elif args.workload == "avionics":
            attempted += len(raw["emitted"])
            failures += check_emitted(work, raw)
        metrics = end_to_end(raw)
        units = END_TO_END_UNITS

    failed = min(len(failures), attempted)
    for failure in failures[:20]:
        print("FAILED:", failure)
    print(f"workload {args.workload}  seed {args.seed}  threads "
          f"{raw['threads']}  "
          f"{'traced replay' if args.trace else 'untraced'}")
    for name, value in metrics.items():
        print(f"  {name:40s} {fmt(value):>14s} {units[name]}")
    print(f"  {'fail_ratio':40s} {fmt(failed / attempted):>14s} ratio "
          f"({failed} of {attempted})")
    if args.trace:
        print("  not applicable on this workload (layer not called): " +
              (", ".join(not_applicable(metrics)) or "none"))
    else:
        samples = raw["latency_ms"]
        tail = tail_percentile(samples)
        print(f"  compile_ms over n={len(samples)} samples; highest "
              f"percentile with >= 10 samples beyond: "
              + (f"p{tail[0]} = {tail[1]:.6g} ms" if tail else "none"))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    if failed:
        print(f"perfbench: kept {work} for inspection", file=sys.stderr)
        return 1
    if args.trace:
        kept = os.path.join(ROOT, ".bench_build", f"trace-{args.workload}.json")
        os.replace(os.path.join(work, "trace.json"), kept)
        print(f"perfbench: trace written to {kept}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
