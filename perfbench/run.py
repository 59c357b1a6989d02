#!/usr/bin/env python3
"""Builds and runs the recycling query service benchmark.

    python3 perfbench/run.py --workload tpch_reuse --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build), then one
workload runs in its own process. The last line of stdout is the JSON
result; with --trace 1 it holds the per-layer metrics, and this script
checks that every per-layer metric listed for the workload is present.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpch_reuse", "tpch_adhoc", "tpch_rw")

# Per-layer metrics and the workloads on which each is expected to move
# (see README.md). The traced output of a workload must carry every metric
# listed for it.
LAYER_METRICS = {
    "net.encode_us": ("tpch_reuse",),
    "net.decode_us": ("tpch_reuse",),
    "net.result_bytes": ("tpch_reuse",),
    "net.queue_us_p50": ("tpch_reuse",),
    "sql.parse_us": ("tpch_reuse",),
    "sql.compile_us": WORKLOADS,
    "sql.compiles": WORKLOADS,
    "server.plan_hit_ratio": ("tpch_reuse", "tpch_rw"),
    "server.overhead_us": ("tpch_reuse",),
    "interp.instrs": ("tpch_adhoc",),
    "engine.op_us": ("tpch_adhoc",),
    "core.hit_ratio": ("tpch_adhoc", "tpch_rw"),
    "core.exact_hits": ("tpch_adhoc",),
    "core.subsumed_hits": ("tpch_adhoc",),
    "core.combined_hits": ("tpch_adhoc",),
    "core.probe_us": ("tpch_reuse",),
    "core.admit_us": ("tpch_adhoc",),
    "core.admitted": ("tpch_adhoc",),
    "core.evicted": ("tpch_adhoc", "tpch_reuse"),
    "core.subsume_alg_ms": ("tpch_adhoc",),
    "core.pool_mb": WORKLOADS,
    "core.excl_lock_frac": ("tpch_adhoc", "tpch_rw"),
    "core.propagated": ("tpch_rw",),
    "core.invalidated": ("tpch_rw",),
    "core.stale_declines": ("tpch_rw",),
    "catalog.commits": ("tpch_rw",),
    "catalog.epoch_pins": ("tpch_rw",),
    "unattributed_us": WORKLOADS,
    "trace_overhead_frac": WORKLOADS,
}
END_TO_END = ("qps", "read_p50_ms", "read_p99_ms", "write_p50_ms",
              "write_p90_ms", "peak_rss_mb", "setup_s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j4", "--target", "rdb_perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "rdb_perfbench")


def missing_metrics(workload, trace, metrics):
    """Names that the result of this workload and mode must carry but does not."""
    if trace:
        want = [k for k, on in LAYER_METRICS.items() if workload in on]
    else:
        want = list(END_TO_END)
    return [k for k in want if k not in metrics]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark exited with %d" % done.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if result["correct"]:
        missing = missing_metrics(args.workload, args.trace, result["metrics"])
        if missing:
            log("result lacks metrics: " + ", ".join(missing))
            result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
