#!/usr/bin/env python3
"""Benchmark-regression gate for bench_concurrent_throughput --json output.

Compares a fresh run against the checked-in baseline
(bench/baseline/BENCH_concurrent.json) and fails (exit 1) when any metric
regresses beyond tolerance:

  qps         relative: fail when current < baseline * (1 - tolerance)
  hit_ratio   absolute: fail when |current - baseline| > hit tolerance
  counters    relative: fail when outside baseline * (1 +/- counter
              tolerance); applies to the plan-cache counters (plan_*) and
              the DML pool-maintenance counters (propagated, invalidated,
              dml_commits)
  p99_us      relative upper bound: fail when current > max(baseline * (1 +
              latency tolerance), baseline + latency grace); advisory on
              config mismatch, like qps
              (p50_us is reported but not gated — log2 bucket edges make
              the median jumpy at microsecond scale)
  rel_qps     absolute: throughput relative to the same run's untraced
              phase (trace_ablation rows); machine-independent, so it
              stays binding even when absolute qps is advisory. The
              "always" row is report-only. kernel_* rows instead carry
              the vectorised-over-scalar-reference kernel ratio and are
              gated by a HARD floor (--kernel-rel-floor, default 1.3)
              rather than baseline-relative drift: the vectorised kernels
              must stay decisively faster than the retained scalar loops.
  encoded     bounded_memory/encoded row: within-run, binding. hit_ratio
              must be STRICTLY greater than raw_hit_ratio (the identical
              workload/budget without encodings — charging entries at
              encoded size must fit more working set), and
              encoding_savings_bytes must be positive (the encoding layer
              still produces compressed intermediates).

Rows are keyed by (phase, load, workers) and the key sets must MATCH: a
baseline row missing from the current run fails (a phase silently stopped
running), and a current row missing from the baseline also fails (a new
phase landed without refreshing the baseline — refresh it so the phase is
actually gated instead of silently skipped). Improvements never fail, but a
qps gain beyond the tolerance prints a hint to refresh the baseline.

Usage:
  python3 bench/check_regression.py CURRENT.json bench/baseline/BENCH_concurrent.json
  python3 bench/check_regression.py CURRENT.json BASELINE.json --tolerance 0.25

Refreshing the baseline (same knobs CI uses):
  RDB_TPCH_SF=0.005 RDB_MAX_WORKERS=4 \\
      ./build/bench_concurrent_throughput --json bench/baseline/BENCH_concurrent.json
"""

import argparse
import json
import sys


def row_key(row):
    return (row["phase"], row.get("load", ""), row["workers"])


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("config", {}), {row_key(r): r for r in doc["results"]}


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("current", help="JSON written by this run (--json)")
    p.add_argument("baseline", help="checked-in baseline JSON")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="relative qps tolerance (default 0.25 = +/-25%%)")
    p.add_argument("--hit-tolerance", type=float, default=0.15,
                   help="absolute hit-ratio tolerance (default 0.15)")
    p.add_argument("--counter-tolerance", type=float, default=0.5,
                   help="relative tolerance for plan-cache counters (default 0.5)")
    p.add_argument("--latency-tolerance", type=float, default=3.0,
                   help="relative p99_us upper-bound tolerance (default 3.0 "
                        "= 4x: log2 buckets quantise in exact 2x steps, so "
                        "the ceiling must clear two bucket steps of noise)")
    p.add_argument("--latency-grace-us", type=float, default=500.0,
                   help="absolute p99_us grace (default 500): the ceiling "
                        "is at least baseline + this, absorbing scheduler "
                        "preemption spikes on shared hosts")
    p.add_argument("--rel-tolerance", type=float, default=0.15,
                   help="absolute rel_qps tolerance (default 0.15)")
    p.add_argument("--kernel-rel-floor", type=float, default=1.3,
                   help="hard rel_qps floor for kernel_* rows (default 1.3): "
                        "vectorised kernels must beat the scalar reference "
                        "by at least this ratio")
    args = p.parse_args()

    cur_cfg, current = load_results(args.current)
    base_cfg, baseline = load_results(args.baseline)

    # qps is only comparable between like-configured runs on like hardware.
    # On mismatch (e.g. a baseline captured on a different runner class),
    # qps checks become advisory; the workload-determined metrics (hit
    # ratios, plan-cache counters) stay binding either way.
    qps_binding = True
    for knob in ("sf", "max_workers", "stripes", "hw_threads"):
        if cur_cfg.get(knob) != base_cfg.get(knob):
            print(f"WARNING: config mismatch on '{knob}' "
                  f"(current={cur_cfg.get(knob)}, baseline={base_cfg.get(knob)}); "
                  f"qps comparison downgraded to advisory — refresh the "
                  f"baseline from this environment's artifact.")
            qps_binding = False

    failures = []
    notes = []

    # Both directions must match: a phase dropping out of the current run is
    # a regression, and a phase absent from the baseline would otherwise run
    # completely ungated.
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

        # qps: lower bound only (faster is fine, but hint at stale baselines).
        # Rows whose gate is a within-run ratio (kernel_* kernels, the
        # encoded bounded-memory ablation) keep qps advisory even on matched
        # configs: a single kernel's absolute rate swings with host jitter
        # far more than the service phases' thousands-of-queries windows,
        # and the ratio is what those rows exist to gate.
        within_run_gated = (key[0].startswith("kernel_")
                            or "raw_hit_ratio" in base)
        floor = base["qps"] * (1 - args.tolerance)
        status = "ok"
        if cur["qps"] < floor:
            msg = (f"{name}: qps {cur['qps']:.1f} < {floor:.1f} "
                   f"(baseline {base['qps']:.1f} - {args.tolerance:.0%})")
            if qps_binding and not within_run_gated:
                failures.append(msg)
                status = "FAIL"
            elif not qps_binding:
                notes.append(msg + " [advisory: config mismatch]")
            else:
                notes.append(msg + " [advisory: row gated by within-run "
                             "ratio]")
        elif cur["qps"] > base["qps"] * (1 + args.tolerance):
            notes.append(
                f"{name}: qps improved {base['qps']:.1f} -> {cur['qps']:.1f}; "
                f"consider refreshing the baseline")

        # Hit ratio: workload-determined, should be stable run to run.
        if abs(cur["hit_ratio"] - base["hit_ratio"]) > args.hit_tolerance:
            failures.append(
                f"{name}: hit_ratio {cur['hit_ratio']:.3f} vs baseline "
                f"{base['hit_ratio']:.3f} (> {args.hit_tolerance} apart)")
            status = "FAIL"

        # Workload-determined counters. Plan-cache counters (sql_plan_cache
        # rows): compiles exploding means the fingerprint normalisation or
        # cache sharing broke. DML counters (sql_dml_mixed rows): propagated
        # collapsing to zero means insert-only commits stopped taking the
        # §6.3 propagation path. Budget counter (bounded_memory rows):
        # evicted collapsing means the byte budget stopped binding. The
        # phase's `borrows` figure is reported in the JSON but NOT gated —
        # which stripe crosses its fair share first is scheduling-dependent,
        # unlike the workload-determined counters here.
        for counter in ("plan_compiles", "plan_hits", "plan_lookups",
                        "propagated", "invalidated", "dml_commits",
                        "evicted"):
            in_base, in_cur = counter in base, counter in cur
            if not in_base and not in_cur:
                continue
            # Presence must match in both directions, same as the row keys:
            # a counter the bench now emits but the baseline lacks would
            # otherwise run completely ungated.
            if in_base != in_cur:
                which = ("baseline" if in_cur else "current run")
                failures.append(
                    f"{name}: counter '{counter}' missing from the {which} — "
                    f"refresh the baseline so it is gated")
                status = "FAIL"
                continue
            lo = base[counter] * (1 - args.counter_tolerance)
            hi = base[counter] * (1 + args.counter_tolerance)
            if not (lo <= cur[counter] <= hi):
                failures.append(
                    f"{name}: {counter} {cur[counter]} outside "
                    f"[{lo:.0f}, {hi:.0f}] (baseline {base[counter]})")
                status = "FAIL"

        # p99 latency: upper bound only, hardware-dependent like qps. The
        # log2 buckets quantise to powers of two, so the default tolerance
        # is a full bucket step. The absolute grace floor absorbs scheduler
        # preemption spikes on shared hosts: a single descheduling adds
        # hundreds of microseconds to the tail regardless of the baseline,
        # which would otherwise flake every low-latency row.
        in_base, in_cur = "p99_us" in base, "p99_us" in cur
        if in_base != in_cur:
            which = "baseline" if in_cur else "current run"
            failures.append(
                f"{name}: 'p99_us' missing from the {which} — refresh the "
                f"baseline so latency is gated")
            status = "FAIL"
        elif in_base:
            ceil = max(base["p99_us"] * (1 + args.latency_tolerance),
                       base["p99_us"] + args.latency_grace_us)
            if cur["p99_us"] > ceil:
                msg = (f"{name}: p99_us {cur['p99_us']} > {ceil:.0f} "
                       f"(baseline {base['p99_us']} + "
                       f"{args.latency_tolerance:.0%})")
                if qps_binding:
                    failures.append(msg)
                    status = "FAIL"
                else:
                    notes.append(msg + " [advisory: config mismatch]")

        # rel_qps: a within-run ratio, binding regardless of hardware.
        # trace_ablation rows gate against baseline drift (always-on tracing
        # is report-only by design); kernel_* rows gate against a HARD floor
        # instead — ratios well above 1 are noisier than the near-1 tracing
        # ratios, but the vectorised kernel must never fall back to scalar
        # parity, whatever the baseline captured.
        in_base, in_cur = "rel_qps" in base, "rel_qps" in cur
        if in_base != in_cur:
            which = "baseline" if in_cur else "current run"
            failures.append(
                f"{name}: 'rel_qps' missing from the {which} — refresh the "
                f"baseline so tracing overhead is gated")
            status = "FAIL"
        elif in_base and key[0].startswith("kernel_"):
            if cur["rel_qps"] < args.kernel_rel_floor:
                failures.append(
                    f"{name}: rel_qps {cur['rel_qps']:.3f} < hard floor "
                    f"{args.kernel_rel_floor} (vectorised kernel no longer "
                    f"decisively beats the scalar reference)")
                status = "FAIL"
        elif in_base and key[1] != "always":
            if cur["rel_qps"] < base["rel_qps"] - args.rel_tolerance:
                failures.append(
                    f"{name}: rel_qps {cur['rel_qps']:.3f} < baseline "
                    f"{base['rel_qps']:.3f} - {args.rel_tolerance} "
                    f"(tracing overhead regressed)")
                status = "FAIL"

        # Encoded bounded-memory gates (bounded_memory/encoded row): both
        # within-run, so binding on any hardware. The hit-ratio win is the
        # point of recycling compressed intermediates — losing it means
        # encoded entries stopped being charged at encoded size (or stopped
        # being admitted); zero savings means the encoder no longer covers
        # the workload's intermediates.
        in_base, in_cur = "raw_hit_ratio" in base, "raw_hit_ratio" in cur
        if in_base != in_cur:
            which = "baseline" if in_cur else "current run"
            failures.append(
                f"{name}: 'raw_hit_ratio' missing from the {which} — refresh "
                f"the baseline so the encoded-recycling win is gated")
            status = "FAIL"
        elif in_cur:
            if cur["hit_ratio"] <= cur["raw_hit_ratio"]:
                failures.append(
                    f"{name}: encoded hit_ratio {cur['hit_ratio']:.3f} <= raw "
                    f"{cur['raw_hit_ratio']:.3f} under the same budget — "
                    f"encoded intermediates no longer stretch the pool")
                status = "FAIL"
            if cur.get("encoding_savings_bytes", 0) <= 0:
                failures.append(
                    f"{name}: encoding_savings_bytes is zero — no compressed "
                    f"intermediates reached the pool")
                status = "FAIL"

        print(f"  {status:4s} {name}: qps {cur['qps']:.1f} "
              f"(baseline {base['qps']:.1f}), hit_ratio {cur['hit_ratio']:.3f} "
              f"(baseline {base['hit_ratio']:.3f})")

    for n in notes:
        print(f"  note {n}")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nno regressions against {args.baseline} "
          f"(qps tolerance +/-{args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
