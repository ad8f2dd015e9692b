#!/usr/bin/env python3
"""Perf-trajectory check: compare prior/current bench JSON artifacts.

CI downloads the artifact from the previous successful run on main and
runs this against the ones the current run just produced. Every ops/sec
series the benches emit is compared per mechanism and series:

  BENCH_registry.json  (bench_registry)      R1 sweep batch throughput,
                                             R3 serving throughput (plain-
                                             batch and sharded), R4 update
                                             epochs, and the R5 scalar/
                                             AVX2/NUMA dispatch series
  BENCH_server.json    (bench_server_loadgen) end-to-end wire ops/sec, the
                                             in-process direct baseline, and
                                             the S2 mixed query/update run

A drop beyond the threshold (default 20%) is flagged with the GitHub
Actions ::warning:: syntax so it surfaces on the run summary. Exit status
is 0 unless --strict is given (shared CI runners are noisy; the default
mode annotates instead of failing the build).

Both artifacts diff in ONE invocation via repeated --pair flags. A pair
whose PRIOR file is missing is skipped with a note (first run on a
branch, artifact expired); a missing CURRENT file means the bench this
run should have produced never materialized and is an error (exit 2).
The two-positional form is kept for compatibility.

Usage:
  check_perf_trajectory.py PRIOR.json CURRENT.json [--threshold 0.20]
                           [--strict]
  check_perf_trajectory.py --pair prior/BENCH_registry.json BENCH_registry.json \
                           --pair prior/BENCH_server.json BENCH_server.json
"""

import argparse
import json
import os
import sys


def ops_series(doc):
    """Yields (series_name, mechanism, ops_per_sec) from a bench JSON."""
    bench = doc.get("bench", "?")
    if bench == "bench_registry":
        for row in doc.get("sweep", {}).get("mechanisms", []):
            if row.get("ok") and row.get("ops_per_sec"):
                yield "sweep", row["name"], float(row["ops_per_sec"])
        for row in doc.get("throughput", {}).get("mechanisms", []):
            if row.get("batch_ops_per_sec"):
                yield "batch", row["name"], float(row["batch_ops_per_sec"])
            if row.get("sharded_ops_per_sec"):
                yield ("sharded", row["name"],
                       float(row["sharded_ops_per_sec"]))
        updates = doc.get("updates", {})
        for row in updates.get("epochs", []):
            if row.get("deltas_per_sec"):
                name = (f"{updates.get('name', '?')}"
                        f"@{row.get('drift', 'uniform')}"
                        f"-{row.get('dirty_fraction', '?')}")
                yield "update", name, float(row["deltas_per_sec"])
        # R5: the scalar/AVX2 dispatch A/B and the NUMA-aware executor.
        # Both legs are tracked independently — a scalar regression is a
        # kernel-semantics change, an avx2-only regression is a dispatch
        # or vectorization change.
        for row in doc.get("simd", {}).get("runs", []):
            tag = f"{row.get('name', '?')}@V{row.get('V', '?')}"
            if row.get("scalar_ops_per_sec"):
                yield "simd", f"{tag}-scalar", float(row["scalar_ops_per_sec"])
            if row.get("avx2_ops_per_sec"):
                yield "simd", f"{tag}-avx2", float(row["avx2_ops_per_sec"])
        for row in doc.get("numa", {}).get("runs", []):
            tag = f"{row.get('name', '?')}@V{row.get('V', '?')}"
            if row.get("ops_per_sec"):
                yield "numa", tag, float(row["ops_per_sec"])
    elif bench == "bench_server_loadgen":
        for row in doc.get("mechanisms", []):
            if row.get("ops_per_sec"):
                yield "net", row["name"], float(row["ops_per_sec"])
            if row.get("direct_ops_per_sec"):
                yield ("direct", row["name"],
                       float(row["direct_ops_per_sec"]))
        mixed = doc.get("mixed", {})
        if mixed.get("ops_per_sec"):
            yield "mixed", mixed.get("name", "?"), float(mixed["ops_per_sec"])
    else:
        print(f"::warning::unrecognized bench JSON ('{bench}'), skipping")


def load_series(path):
    with open(path) as f:
        return {(series, name): ops
                for series, name, ops in ops_series(json.load(f))}


def compare_pair(prior_path, current_path, threshold):
    """Prints the comparison table; returns the list of regressions."""
    print(f"\n== {prior_path} -> {current_path} ==")
    prior = load_series(prior_path)
    current = load_series(current_path)

    if not prior:
        print("no ops/sec series in the prior artifact; nothing to compare")
        return []

    regressions = []
    print(f"{'series':<8} {'mechanism':<24} {'prior':>14} {'current':>14} "
          f"{'delta':>8}")
    for key in sorted(current):
        series, name = key
        if key not in prior:
            print(f"{series:<8} {name:<24} {'(new)':>14} "
                  f"{current[key]:>14.0f} {'':>8}")
            continue
        delta = current[key] / prior[key] - 1.0
        print(f"{series:<8} {name:<24} {prior[key]:>14.0f} "
              f"{current[key]:>14.0f} {delta:>+7.1%}")
        if delta < -threshold:
            regressions.append((series, name, delta))
    for key in sorted(set(prior) - set(current)):
        print(f"{key[0]:<8} {key[1]:<24} {prior[key]:>14.0f} "
              f"{'(gone)':>14} {'':>8}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("prior", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--pair", nargs=2, action="append", default=[],
                        metavar=("PRIOR", "CURRENT"),
                        help="a prior/current artifact pair to diff; "
                             "repeatable. A missing PRIOR is skipped, a "
                             "missing CURRENT is an error")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="flag drops beyond this fraction (default .20)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression is flagged")
    args = parser.parse_args()

    pairs = list(args.pair)
    if args.prior and args.current:
        pairs.insert(0, [args.prior, args.current])
    elif args.prior or args.current:
        parser.error("positional artifacts must come as a PRIOR CURRENT "
                     "pair (or use --pair)")
    if not pairs:
        parser.error("give PRIOR CURRENT positionally or at least one --pair")

    regressions = []
    compared = 0
    for prior_path, current_path in pairs:
        # A missing PRIOR is normal (first run on a branch, artifact
        # expired); a missing CURRENT means the bench this run was
        # supposed to produce never materialized — that is a broken bench
        # pipeline, not a clean skip, and must fail the step visibly.
        if not os.path.exists(current_path):
            print(f"::error::current bench artifact {current_path} was not "
                  f"produced by this run")
            return 2
        if not os.path.exists(prior_path):
            print(f"skipping {prior_path} -> {current_path}: "
                  f"no prior artifact")
            continue
        regressions += compare_pair(prior_path, current_path, args.threshold)
        compared += 1

    if compared == 0:
        print("no artifact pair present (first run on this branch?); "
              "nothing to compare")
        return 0

    for series, name, delta in regressions:
        print(f"::warning::ops/sec regression: {name} ({series}) "
              f"dropped {-delta:.1%} vs the previous run "
              f"(threshold {args.threshold:.0%})")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}")
        return 1 if args.strict else 0
    print("\nno ops/sec regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
