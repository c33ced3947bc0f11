#!/usr/bin/env python3
"""Diff two BENCH_eval JSON reports (tools/argo_eval) PR-over-PR.

Usage:
    bench_diff.py OLD.json NEW.json
    bench_diff.py --self-test

Prints a per-policy delta table — wins, mean tightness, mean bound
speedup, and (when both reports carry --timings) wall time — plus the
mean per-row bound delta over the rows the two reports share (matched by
(scenario, platform, policy)). Purely informational: exit 0 on success,
1 on malformed input, 2 on usage. CI runs this against the previous
run's BENCH_eval artifact to expose the bound/wall-time trajectory of
every PR (see .github/workflows/ci.yml and docs/SCENARIOS.md).
"""

import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"bench_diff: cannot read {path}: {err}")
    for key in ("rows", "summary", "policies"):
        if key not in report:
            raise SystemExit(f"bench_diff: {path} is not a BENCH_eval report "
                             f"(missing '{key}')")
    return report


def fmt_delta(old, new, percent=True):
    """'old -> new (+x%)' with a stable fixed format."""
    if old is None or new is None:
        return "n/a"
    if isinstance(old, float) or isinstance(new, float):
        text = f"{old:.4f} -> {new:.4f}"
    else:
        text = f"{old} -> {new}"
    if percent and old:
        text += f" ({100.0 * (new - old) / old:+.1f}%)"
    return text


def per_policy_summary(report):
    return {entry["policy"]: entry
            for entry in report["summary"].get("per_policy", [])}


def row_key(row):
    return (row.get("scenario"), row.get("platform"), row.get("policy"))


def diff(old, new, out=sys.stdout):
    old_sum = per_policy_summary(old)
    new_sum = per_policy_summary(new)
    policies = [p for p in new["policies"]]
    for p in old["policies"]:
        if p not in policies:
            policies.append(p)

    # Mean per-row bound/observed delta over the shared row set.
    old_rows = {row_key(r): r for r in old["rows"]}
    matched = 0
    bound_ratios = {}
    for row in new["rows"]:
        prev = old_rows.get(row_key(row))
        if prev is None or not prev.get("bound"):
            continue
        matched += 1
        bound_ratios.setdefault(row["policy"], []).append(
            (row["bound"] - prev["bound"]) / prev["bound"])

    print(f"BENCH_eval diff: {len(old['rows'])} old rows, "
          f"{len(new['rows'])} new rows, {matched} matched "
          f"(seed {old.get('seed')} -> {new.get('seed')})", file=out)
    # Cross-product header fields (PR 8+ schema): absent in older
    # reports, which implicitly ran modulo mode. Surface a mode change —
    # it redefines the row population, so a shrinking 'matched' count
    # above is then expected rather than a regression.
    if "sweep_mode" in old or "sweep_mode" in new:
        print(f"sweep_mode: {old.get('sweep_mode', 'modulo')} -> "
              f"{new.get('sweep_mode', 'modulo')}, platform_cases: "
              f"{old.get('platform_cases', 'n/a')} -> "
              f"{new.get('platform_cases', 'n/a')}", file=out)
    header = (f"{'policy':<22} {'wins':<16} {'mean_tightness':<28} "
              f"{'mean_bound_speedup':<28} {'mean_bound_delta':<16} wall_ms")
    print(header, file=out)
    print("-" * len(header), file=out)
    for policy in policies:
        o = old_sum.get(policy, {})
        n = new_sum.get(policy, {})
        ratios = bound_ratios.get(policy)
        bound_delta = (f"{100.0 * sum(ratios) / len(ratios):+.2f}%"
                       if ratios else "n/a")
        wall = fmt_delta(o.get("wall_ms"), n.get("wall_ms"))
        print(f"{policy:<22} "
              f"{fmt_delta(o.get('wins'), n.get('wins'), percent=False):<16} "
              f"{fmt_delta(o.get('mean_tightness'), n.get('mean_tightness')):<28} "
              f"{fmt_delta(o.get('mean_bound_speedup'), n.get('mean_bound_speedup')):<28} "
              f"{bound_delta:<16} {wall}", file=out)

    old_safe = old["summary"].get("all_sim_safe")
    new_safe = new["summary"].get("all_sim_safe")
    print(f"all_sim_safe: {old_safe} -> {new_safe}", file=out)
    total = fmt_delta(old["summary"].get("total_wall_ms"),
                      new["summary"].get("total_wall_ms"))
    if total != "n/a":
        print(f"total_wall_ms: {total}", file=out)
    # Stage-cache counters (PR 8+ schema, emitted only under --timings).
    # Purely informational: the hit/wait split is thread-timing-dependent,
    # so only the per-stage hit *rate* trajectory is worth reading.
    old_cache = old["summary"].get("cache_stats") or {}
    new_cache = new["summary"].get("cache_stats") or {}
    def hit_rate(stats):
        if not stats:
            return "n/a"
        lookups = (stats.get("hits", 0) + stats.get("misses", 0) +
                   stats.get("inflight_waits", 0))
        return f"{stats.get('hits', 0) / lookups:.4f}" if lookups else "n/a"

    def disk_line(stats):
        if not stats:
            return "n/a"
        return (f"hits={stats.get('hits', 0)} "
                f"rejects={stats.get('rejects', 0)} "
                f"stores={stats.get('stores', 0)}")

    for stage in sorted(set(old_cache) | set(new_cache)):
        if stage == "disk":
            # PR 9+ schema: the on-disk tier's counters ride along inside
            # cache_stats but have their own shape (no inflight_waits;
            # a nonzero reject count is the health signal worth reading).
            print(f"disk_cache: {disk_line(old_cache.get(stage))} -> "
                  f"{disk_line(new_cache.get(stage))}", file=out)
            continue
        print(f"cache_hit_rate[{stage}]: {hit_rate(old_cache.get(stage))} "
              f"-> {hit_rate(new_cache.get(stage))}", file=out)

    # Unified metrics block (PR 10+ schema, --timings only): the counter
    # registry snapshot (docs/OBSERVABILITY.md). Informational — many
    # counters are scheduling-dependent (ready-queue waits, hit/wait
    # splits), so only deterministic sums are comparable run to run.
    old_metrics = old["summary"].get("metrics") or {}
    new_metrics = new["summary"].get("metrics") or {}
    for name in sorted(set(old_metrics) | set(new_metrics)):
        print(f"metrics[{name}]: "
              f"{fmt_delta(old_metrics.get(name), new_metrics.get(name), percent=False)}",
              file=out)


def _fixture(bound, tightness, wall):
    return {
        "bench": "argo_eval", "seed": 7,
        "policies": ["heft", "annealed"],
        "rows": [
            {"scenario": "scn000", "platform": "bus_rr_c2", "policy": "heft",
             "bound": bound, "tightness": tightness},
            {"scenario": "scn000", "platform": "bus_rr_c2",
             "policy": "annealed", "bound": bound + 50, "tightness": 0.5},
        ],
        "summary": {
            "per_policy": [
                {"policy": "heft", "wins": 1, "mean_tightness": tightness,
                 "mean_bound_speedup": 2.0, "wall_ms": wall},
                {"policy": "annealed", "wins": 0, "mean_tightness": 0.5,
                 "mean_bound_speedup": 1.8, "wall_ms": wall * 2},
            ],
            "all_sim_safe": True,
            "total_wall_ms": wall * 3,
        },
    }


def _cross_fixture(bound, tightness, wall):
    """A PR 8+ report: cross-product header plus cache counters."""
    report = _fixture(bound, tightness, wall)
    report["sweep_mode"] = "cross"
    report["platform_cases"] = 9
    report["summary"]["cache_stats"] = {
        "transforms": {"hits": 30, "misses": 10, "inflight_waits": 0},
        "schedules": {"hits": 0, "misses": 40, "inflight_waits": 0},
    }
    return report


def _disk_fixture(bound, tightness, wall):
    """A PR 9+ report: cache_stats additionally carries the disk tier."""
    report = _cross_fixture(bound, tightness, wall)
    report["summary"]["cache_stats"]["disk"] = {
        "hits": 40, "misses": 8, "rejects": 0, "stores": 8,
        "store_failures": 0,
    }
    return report


def _metrics_fixture(bound, tightness, wall):
    """A PR 10+ report: the unified `metrics` counter block rides along."""
    report = _disk_fixture(bound, tightness, wall)
    report["summary"]["metrics"] = {
        "graph.ready_wait_us": 64, "graph.nodes_skipped": 3,
        "cache.transforms.hits": 30, "cache.transforms.misses": 10,
        "graph.nodes_run": 12,
    }
    return report


def self_test():
    import io
    out = io.StringIO()
    diff(_fixture(1000, 0.8, 10.0), _fixture(900, 0.85, 12.0), out=out)
    text = out.getvalue()
    for needle in ("heft", "annealed", "1 -> 1", "0.8000 -> 0.8500",
                   "-10.00%", "all_sim_safe: True -> True",
                   "total_wall_ms: 30.0000 -> 36.0000 (+20.0%)"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    # Legacy fields only when neither side carries the PR 8+ schema.
    for absent in ("sweep_mode", "cache_hit_rate"):
        if absent in text:
            raise SystemExit(
                f"bench_diff --self-test: unexpected {absent!r} in:\n{text}")

    # Mixed schemas: an old pre-cross report diffed against a new
    # cross-product one (the first CI run after the schema change) must
    # not crash and must surface the mode change and the cache counters.
    out = io.StringIO()
    diff(_fixture(1000, 0.8, 10.0), _cross_fixture(900, 0.85, 12.0), out=out)
    text = out.getvalue()
    for needle in ("sweep_mode: modulo -> cross",
                   "platform_cases: n/a -> 9",
                   "cache_hit_rate[transforms]: n/a -> 0.7500",
                   "cache_hit_rate[schedules]: n/a -> 0.0000"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    # And the reverse direction (comparing back across the schema change).
    out = io.StringIO()
    diff(_cross_fixture(1000, 0.8, 10.0), _fixture(900, 0.85, 12.0), out=out)
    if "sweep_mode: cross -> modulo" not in out.getvalue():
        raise SystemExit("bench_diff --self-test: reverse-direction "
                         f"sweep_mode line missing in:\n{out.getvalue()}")

    # PR 9+ schema: a disk-tier entry inside cache_stats must render its
    # own counter line (not a bogus hit-rate row) and must not break a
    # diff against an older report without one.
    out = io.StringIO()
    diff(_cross_fixture(1000, 0.8, 10.0), _disk_fixture(900, 0.85, 12.0),
         out=out)
    text = out.getvalue()
    for needle in ("disk_cache: n/a -> hits=40 rejects=0 stores=8",
                   "cache_hit_rate[transforms]"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    if "cache_hit_rate[disk]" in text:
        raise SystemExit("bench_diff --self-test: disk tier leaked into "
                         f"cache_hit_rate in:\n{text}")
    if "metrics[" in text:
        raise SystemExit("bench_diff --self-test: metrics lines rendered "
                         f"without a metrics block in:\n{text}")

    # PR 10+ schema: the unified metrics block renders per-counter delta
    # lines, tolerates the mixed case (older report without the block),
    # and counters missing on one side degrade to n/a.
    out = io.StringIO()
    diff(_disk_fixture(1000, 0.8, 10.0), _metrics_fixture(900, 0.85, 12.0),
         out=out)
    text = out.getvalue()
    for needle in ("metrics[graph.ready_wait_us]: n/a",
                   "metrics[cache.transforms.hits]: n/a",
                   "metrics[graph.nodes_run]: n/a"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    out = io.StringIO()
    diff(_metrics_fixture(1000, 0.8, 10.0), _metrics_fixture(900, 0.85, 12.0),
         out=out)
    if "metrics[graph.ready_wait_us]: 64 -> 64" not in out.getvalue():
        raise SystemExit("bench_diff --self-test: same-schema metrics delta "
                         f"missing in:\n{out.getvalue()}")
    print("bench_diff self-test ok")


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        self_test()
        return 0
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    diff(load(argv[1]), load(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
