#!/usr/bin/env python3
"""Compare a fresh BENCH_micro.json against the checked-in baseline.

Usage: scripts/compare_bench.py BASELINE.json FRESH.json [--tolerance PCT]

Reads two Google Benchmark JSON dumps and reports the per-benchmark cpu_time
ratio (fresh / baseline). A benchmark run with repetitions is read from its
median aggregate row, one without from its single iteration row. Exits non-zero when any GUARDED benchmark family
regresses by more than the tolerance (default 25%, overridable with
--tolerance or the PRISTE_BENCH_TOLERANCE_PCT env var — CI runners are
noisy, so the gate is deliberately loose; it exists to catch order-of-magnitude
mistakes like an accidentally disabled cache, not 5% drift).

Only the accelerated arms of the recorded perf-trajectory pairs are guarded:
the slow arms (dense, cold, cache-off) are reference points whose speed is
not a promise. Benchmarks present in only one file are reported but never
fatal — families come and go across PRs; scripts/bench.sh separately enforces
that the recorded families still exist.
"""

import argparse
import json
import os
import sys

# Accelerated arms whose regression means a real perf promise broke.
GUARDED_PREFIXES = [
    "BM_PropagateSparse",
    "BM_LiftedStepColumn/side:32/csr:1",
    "BM_ForwardBackward/side:32/csr:1",
    "BM_TheoremVectors",
    "BM_QpCheck",
    "BM_PlmEmissionBuild",
    "BM_DeltaRestrictedBuild",
    "BM_ReleaseStepCached/cached:1",
    "BM_ReleaseStepDensePrefix/dense_rows:1",
    "BM_SharedEmissionCache/cached:1",
    "BM_RowBlockReplicateDot/simd:1",
]


def load_benchmarks(path):
    with open(path) as f:
        data = json.load(f)
    iterations = {}
    medians = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("run_name", bench["name"])
        if bench.get("run_type", "iteration") == "iteration":
            iterations[name] = float(bench["cpu_time"])
        elif bench.get("aggregate_name") == "median":
            medians[name] = float(bench["cpu_time"])
    return {**iterations, **medians}


def is_guarded(name):
    return any(name.startswith(prefix) for prefix in GUARDED_PREFIXES)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PRISTE_BENCH_TOLERANCE_PCT", "25")),
        help="max allowed regression of guarded families, in percent",
    )
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.fresh)
    if not fresh:
        print(f"error: no benchmarks in {args.fresh}", file=sys.stderr)
        return 2

    failures = []
    width = max((len(n) for n in sorted(set(baseline) | set(fresh))), default=0)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  ratio")
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            print(f"{name:<{width}}  {'—':>12}  {fresh[name]:>12.0f}  (new)")
            continue
        if name not in fresh:
            print(f"{name:<{width}}  {baseline[name]:>12.0f}  {'—':>12}  (gone)")
            continue
        ratio = fresh[name] / baseline[name] if baseline[name] > 0 else float("inf")
        guard = ""
        if is_guarded(name):
            guard = " [guarded]"
            if ratio > 1.0 + args.tolerance / 100.0:
                guard += " REGRESSION"
                failures.append((name, ratio))
        print(
            f"{name:<{width}}  {baseline[name]:>12.0f}  {fresh[name]:>12.0f}  "
            f"{ratio:5.2f}x{guard}"
        )

    if failures:
        print(
            f"\n{len(failures)} guarded famil"
            f"{'y' if len(failures) == 1 else 'ies'} regressed beyond "
            f"{args.tolerance:.0f}%:",
            file=sys.stderr,
        )
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x baseline", file=sys.stderr)
        return 1
    print(f"\nall guarded families within {args.tolerance:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
