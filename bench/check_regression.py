#!/usr/bin/env python3
"""Benchmark-regression gate for bench_concurrent_throughput --json output.

Compares a fresh run against the checked-in baseline
(bench/baseline/BENCH_concurrent.json) and fails (exit 1) on any of these.
Every check is a workload-determined counter or a within-run ratio, so it
binds the same on any host; absolute throughput and latency are measured end
to end by perfbench/ instead.

  config      sf, max_workers and stripes must match the baseline's: the
              counters depend on them.
  rows        rows are keyed by (phase, load, workers) and the key sets must
              match. A baseline row missing from the current run fails (a
              phase silently stopped running), and a current row missing from
              the baseline fails too (a new phase landed without refreshing
              the baseline, so it would run ungated).
  hit_ratio   absolute: fail when |current - baseline| > hit tolerance
  counters    relative: fail when outside baseline * (1 +/- counter
              tolerance); applies to the plan-cache counters (plan_*), the
              DML pool-maintenance counters (propagated, invalidated,
              dml_commits) and budget-forced evictions (evicted)
  rel_qps     trace_ablation rows: throughput relative to the same run's
              untraced phase, fail when current < baseline - rel tolerance;
              the "always" row is report-only. kernel_* rows instead carry
              the vectorised-over-scalar-reference kernel ratio and are gated
              by a HARD floor (--kernel-rel-floor, default 1.3): the
              vectorised kernels must stay decisively faster than the
              retained scalar loops, whatever the baseline captured.

Usage:
  python3 bench/check_regression.py CURRENT.json bench/baseline/BENCH_concurrent.json

Refreshing the baseline (same knobs CI uses):
  RDB_TPCH_SF=0.005 RDB_MAX_WORKERS=4 \\
      ./build/bench_concurrent_throughput --json bench/baseline/BENCH_concurrent.json
"""

import argparse
import json
import sys

CONFIG_KNOBS = ("sf", "max_workers", "stripes")
COUNTERS = ("plan_compiles", "plan_hits", "plan_lookups", "propagated",
            "invalidated", "dml_commits", "evicted")


def row_key(row):
    return (row["phase"], row.get("load", ""), row["workers"])


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("config", {}), {row_key(r): r for r in doc["results"]}


def missing_field(name, field, cur):
    """Presence of a gated field must match in both directions: one the
    bench now emits but the baseline lacks would otherwise run ungated."""
    which = "baseline" if field in cur else "current run"
    return (f"{name}: '{field}' missing from the {which} — refresh the "
            f"baseline so it is gated")


def check_row(name, key, base, cur, args):
    failures = []

    # Hit ratio: workload-determined, should be stable run to run.
    if abs(cur["hit_ratio"] - base["hit_ratio"]) > args.hit_tolerance:
        failures.append(
            f"{name}: hit_ratio {cur['hit_ratio']:.3f} vs baseline "
            f"{base['hit_ratio']:.3f} (> {args.hit_tolerance} apart)")

    # Workload-determined counters. Plan-cache counters (sql_plan_cache
    # rows): compiles exploding means the fingerprint normalisation or cache
    # sharing broke. DML counters (sql_dml_mixed rows): propagated collapsing
    # to zero means insert-only commits stopped taking the §6.3 propagation
    # path. Budget counter (bounded_memory rows): evicted collapsing means
    # the byte budget stopped binding.
    for counter in COUNTERS:
        if (counter in base) != (counter in cur):
            failures.append(missing_field(name, counter, cur))
            continue
        if counter not in base:
            continue
        lo = base[counter] * (1 - args.counter_tolerance)
        hi = base[counter] * (1 + args.counter_tolerance)
        if not (lo <= cur[counter] <= hi):
            failures.append(
                f"{name}: {counter} {cur[counter]} outside "
                f"[{lo:.0f}, {hi:.0f}] (baseline {base[counter]})")

    # rel_qps: a within-run ratio. trace_ablation rows gate against baseline
    # drift (always-on tracing is report-only by design); kernel_* rows gate
    # against a hard floor — ratios well above 1 are noisier than the near-1
    # tracing ratios, but the vectorised kernel must never fall back to
    # scalar parity.
    if ("rel_qps" in base) != ("rel_qps" in cur):
        failures.append(missing_field(name, "rel_qps", cur))
    elif "rel_qps" in base and key[0].startswith("kernel_"):
        if cur["rel_qps"] < args.kernel_rel_floor:
            failures.append(
                f"{name}: rel_qps {cur['rel_qps']:.3f} < hard floor "
                f"{args.kernel_rel_floor} (vectorised kernel no longer "
                f"decisively beats the scalar reference)")
    elif "rel_qps" in base and key[1] != "always":
        if cur["rel_qps"] < base["rel_qps"] - args.rel_tolerance:
            failures.append(
                f"{name}: rel_qps {cur['rel_qps']:.3f} < baseline "
                f"{base['rel_qps']:.3f} - {args.rel_tolerance} "
                f"(tracing overhead regressed)")

    return failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("current", help="JSON written by this run (--json)")
    p.add_argument("baseline", help="checked-in baseline JSON")
    p.add_argument("--hit-tolerance", type=float, default=0.15,
                   help="absolute hit-ratio tolerance (default 0.15)")
    p.add_argument("--counter-tolerance", type=float, default=0.5,
                   help="relative tolerance for workload counters (default 0.5)")
    p.add_argument("--rel-tolerance", type=float, default=0.15,
                   help="absolute rel_qps tolerance (default 0.15)")
    p.add_argument("--kernel-rel-floor", type=float, default=1.3,
                   help="hard rel_qps floor for kernel_* rows (default 1.3): "
                        "vectorised kernels must beat the scalar reference "
                        "by at least this ratio")
    args = p.parse_args(argv)

    cur_cfg, current = load_results(args.current)
    base_cfg, baseline = load_results(args.baseline)

    failures = []
    for knob in CONFIG_KNOBS:
        if cur_cfg.get(knob) != base_cfg.get(knob):
            failures.append(
                f"config mismatch on '{knob}' (current={cur_cfg.get(knob)}, "
                f"baseline={base_cfg.get(knob)}): the gated counters depend "
                f"on it — run with the baseline's knobs")

    for key in sorted(current.keys() - baseline.keys()):
        failures.append(
            f"{key[0]}/{key[1]}/workers={key[2]}: row missing from the "
            f"baseline — refresh bench/baseline/BENCH_concurrent.json so this "
            f"phase is gated")

    for key, base in sorted(baseline.items()):
        name = f"{key[0]}/{key[1]}/workers={key[2]}"
        cur = current.get(key)
        if cur is None:
            failures.append(f"{name}: row missing from current run")
            continue
        row_failures = check_row(name, key, base, cur, args)
        failures += row_failures
        print(f"  {'FAIL' if row_failures else 'ok':4s} {name}: hit_ratio "
              f"{cur['hit_ratio']:.3f} (baseline {base['hit_ratio']:.3f})")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nno regressions against {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
