#!/usr/bin/env python3
"""The serving benchmark's entry point.

Builds perfbench_serve (and the library layers it links) from source,
runs one workload, checks the run's output, and prints its records; the
last line of standard output is the result object.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-check

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set (relative to the repository root), else to .bench_build. --self-check
runs every workload at a tiny size, traced and untraced, and asserts that
every metric is emitted with its unit and that the correctness gate ran.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk-query", "point-lookup", "live-traffic")
CHILD_TIMEOUT_S = 165

END_TO_END = {
    "setup_s": "s",
    "query_pairs_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.ns_per_pair": "ns",
    "core.ns_per_pair_scalar": "ns",
    "serve.execute_ns_per_pair": "ns",
    "serve.shards": "count",
    "serve.fanout_speedup": "x",
    "net.encode_request_us": "us",
    "net.decode_request_us": "us",
    "net.encode_response_us": "us",
    "net.decode_response_us": "us",
    "net.bytes_per_request": "bytes",
    "net.loopback_us": "us",
    "net.round_trip_us": "us",
    "net.server_residual_us": "us",
    "net.stage_share": "ratio",
    "core.build_ms": "ms",
    "core.restore_ms": "ms",
    "core.image_bytes": "bytes",
    "store.snapshot_write_ms": "ms",
    "store.snapshot_load_ms": "ms",
    "cluster.materialize_ms": "ms",
    "store.wal_append_us": "us",
    "serve.apply_updates_ms": "ms",
    "serve.dirty_blocks_per_epoch": "count",
    "dp.charged_eps_per_epoch": "eps",
    "store.delta_compute_us": "us",
    "store.delta_bytes_per_epoch": "bytes",
    "cluster.delta_apply_us": "us",
    "cluster.delta_share": "ratio",
    "trace.overhead_ratio": "x",
}

# Detail-record fields every run of the live workload must carry.
LIVE_DETAIL = ("update_p50_ms", "update_p90_ms", "replica_lag_p50_ms",
               "failed_op_share", "epochs", "replica")
ENVIRONMENT = ("nproc", "client_threads", "executor_threads", "simd_dispatch",
               "numa_nodes", "compiler", "build_type", "persistence_fs", "seed")


class BenchError(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("the library sources are missing; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_serve"]):
        # Build chatter goes to stderr so stdout stays the records.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_serve")


def run_once(binary, workload, seed, seconds, trace, scale):
    """Runs the binary once; returns its parsed records (result last)."""
    work = os.path.join(build_dir(), "work-%d-%s-%d" % (os.getpid(), workload, trace))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload, CHILD_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.decode().strip().splitlines()
    try:
        records = [json.loads(line) for line in lines]
    except ValueError as e:
        raise BenchError("unparseable output: %s" % e)
    check_result(records, trace)
    return records


def check_result(records, trace):
    if len(records) < 3:
        raise BenchError("expected environment, detail and result records")
    env, detail, result = records[0], records[-2], records[-1]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError("result line has keys %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        raise BenchError("result is not a correct run")
    expected = PER_LAYER if trace else END_TO_END
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        raise BenchError("metrics differ from the declared set: %s" %
                         sorted(set(got.items()) ^ set(expected.items())))
    missing = [k for k in ENVIRONMENT if k not in env]
    if missing:
        raise BenchError("environment record lacks %s" % missing)
    gate = detail.get("correctness_gate", {})
    if not (gate.get("ran") and gate.get("passed") and gate.get("pairs_checked", 0) > 0):
        raise BenchError("the correctness gate did not run")


def self_check(binary):
    declared = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(declared):
        with open(declared) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in bench[key]}
            if listed != table:
                raise BenchError("BENCHMARK.json %s differs from run.py" % key)
        if not {w["name"] for w in bench["workloads"]} <= set(WORKLOADS):
            raise BenchError("BENCHMARK.json names a workload run.py lacks")
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.time()
            records = run_once(binary, workload, 7, 1, trace, "tiny")
            detail = records[-2]
            if workload == "live-traffic":
                missing = [k for k in LIVE_DETAIL if k not in detail and not trace]
                if missing:
                    raise BenchError("live detail lacks %s" % missing)
            if records[-1]["failed"] != 0:
                raise BenchError("%s: %d operations failed" %
                                 (workload, records[-1]["failed"]))
            print("self-check %-12s trace=%d ok (%.1f s)" %
                  (workload, trace, time.time() - start))
    print("self-check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
        if args.self_check:
            self_check(binary)
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        records = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace, "full")
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for record in records:
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
