#!/usr/bin/env sh
# Micro-kernel perf trajectory: builds bench_micro_kernels (Release) and
# emits BENCH_micro.json — the baseline every later perf PR must beat.
#
# Usage: scripts/bench.sh [--smoke] [build-dir]
#   --smoke    short measurement window (CI artifact mode)
#   build-dir  defaults to build/bench
#
# Knobs: PRISTE_THREADS sets how many threads, the caller included, each
# ParallelFor of the experiment benchmarks runs on (recorded in the JSON
# context); OUT overrides the output path.
set -eu

SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
  SMOKE=1
  shift
fi
BUILD_DIR="${1:-build/bench}"
OUT="${OUT:-BENCH_micro.json}"
ROOT="$(dirname "$0")/.."

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DPRISTE_BUILD_TESTS=OFF -DPRISTE_BUILD_EXAMPLES=OFF -DPRISTE_BUILD_TOOLS=OFF
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)" \
  --target bench_micro_kernels

if [ ! -x "$BUILD_DIR/bench/bench_micro_kernels" ]; then
  echo "bench_micro_kernels was not built (Google Benchmark missing?)" >&2
  exit 1
fi

EXTRA=""
if [ "$SMOKE" = "1" ]; then
  # Plain-double form: accepted by every Google Benchmark release (the
  # "0.05s" suffix form needs >= 1.8). Five repetitions give
  # compare_bench.py a median to compare, so one noisy shot cannot trip it.
  EXTRA="--benchmark_min_time=0.05 --benchmark_repetitions=5"
fi

# priste_threads lands in the JSON "context" block so later comparisons
# know what thread count the experiment benchmarks ran at.
PRISTE_THREADS="${PRISTE_THREADS:-4}" \
  "$BUILD_DIR/bench/bench_micro_kernels" \
  --benchmark_out="$OUT" --benchmark_out_format=json \
  --benchmark_context=priste_threads="${PRISTE_THREADS:-4}" \
  --benchmark_counters_tabular=true $EXTRA

# The cold-chain / QP-check / emission-build / release-step-engine families
# are part of the recorded perf trajectory — fail loudly if a refactor drops
# them from the binary.
for family in BM_TheoremVectors \
              BM_QpCheck BM_PlmEmissionBuild BM_DeltaRestrictedBuild \
              BM_ReleaseStepCached BM_ReleaseStepDensePrefix \
              BM_SharedEmissionCache BM_RowBlockReplicateDot; do
  if ! grep -q "$family" "$OUT"; then
    echo "$OUT is missing benchmark family $family" >&2
    exit 1
  fi
done

echo "wrote $OUT (PRISTE_THREADS=${PRISTE_THREADS:-4})"
