#!/usr/bin/env sh
# Tier-1 verify — the canonical gate from ROADMAP.md, runnable as one command.
# Usage: scripts/tier1.sh [--cold-cache] [--lint] [build-dir] [extra cmake args...]
#   --cold-cache  run the WHOLE suite with the release-step prefix cache
#                 forced off (PRISTE_MAX_CACHE_SUPPORT=0), on top of the
#                 always-on <suite>.coldcache ctest entries
#   --lint        after the suite, run the static analyzer
#                 (tools/lint/priste_lint.py) self-test and its scan of the
#                 build's compile_commands.json, which also writes
#                 <build-dir>/lint_report.json — same steps as the CI lint job
#   build-dir     defaults to build
set -eu

RUN_LINT=0
while :; do
  case "${1:-}" in
    --cold-cache)
      PRISTE_MAX_CACHE_SUPPORT=0
      export PRISTE_MAX_CACHE_SUPPORT
      shift
      ;;
    --lint)
      RUN_LINT=1
      shift
      ;;
    *)
      break
      ;;
  esac
done
BUILD_DIR="${1:-build}"
[ "$#" -gt 0 ] && shift
cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." "$@"
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc 2>/dev/null || echo 2)"

if [ "$RUN_LINT" = "1" ]; then
  ROOT="$(dirname "$0")/.."
  python3 "$ROOT/tools/lint/priste_lint.py" --self-test
  python3 "$ROOT/tools/lint/priste_lint.py" --compile-commands "$BUILD_DIR/compile_commands.json" --src-root "$ROOT" --report "$BUILD_DIR/lint_report.json"
fi
