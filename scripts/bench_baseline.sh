#!/usr/bin/env bash
# Regenerate the committed perf baselines (BENCH_schedtime.json and
# BENCH_alloc_deadline.json).
#
# Runs bench_table3_schedtime on Synth-16 and the production-radix
# Synth-48 (27648 nodes) with --repeat 5 so the baseline carries a mean
# and a sample-stddev column per scheme and trace, then rewrites the
# checked-in BENCH_schedtime.json at the repo root. The run installs the
# build's precomputed shape tables (JIGSAW_SHAPE_TABLE) — the shipping
# configuration — so the baseline measures the table-serving path. CI's
# perf-smoke job compares a fresh run against this file with
# scripts/check_schedtime_regression.py and fails on a >25% mean
# regression for any scheme on any trace (missing cells are errors).
#
# Then runs bench_alloc_deadline's Synth-48 deadline sweep (k=48 shape
# table installed) and rewrites BENCH_alloc_deadline.json; the
# committed file must satisfy scripts/check_deadline_regression.py at
# its strict defaults (allocate() p99 within 1.2x the 100 us deadline,
# Jigsaw utilization within 1 pp of the exhaustive row) — CI re-checks
# both the committed file and a fresh run (looser p99 factor there: the
# shared runners' wall clocks are noisy).
#
# Regenerate (and commit the result) whenever the allocator hot path
# changes on purpose, on a quiet machine:
#
#   cmake --preset default && cmake --build --preset default -j
#   scripts/bench_baseline.sh
#
# Usage: scripts/bench_baseline.sh [BUILD_DIR]   (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH="$BUILD_DIR/bench/bench_table3_schedtime"
DEADLINE_BENCH="$BUILD_DIR/bench/bench_alloc_deadline"

for bin in "$BENCH" "$DEADLINE_BENCH"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found or not executable; build first:" >&2
    echo "  cmake --preset default && cmake --build --preset default -j" >&2
    exit 1
  fi
done

for table in "$BUILD_DIR/shape_tables/k16.jst" "$BUILD_DIR/shape_tables/k48.jst"; do
  if [ ! -f "$table" ]; then
    echo "error: $table not found; build the shape_tables target first" >&2
    exit 1
  fi
done

JIGSAW_SHAPE_TABLE="$BUILD_DIR/shape_tables/k16.jst:$BUILD_DIR/shape_tables/k48.jst" \
  "$BENCH" --traces Synth-16,Synth-48 --repeat 5 \
  --json-out "$REPO_ROOT/BENCH_schedtime.json"
echo "wrote $REPO_ROOT/BENCH_schedtime.json"

JIGSAW_SHAPE_TABLE="$BUILD_DIR/shape_tables/k48.jst" \
  "$DEADLINE_BENCH" --traces Synth-48 --schemes jigsaw --repeat 3 \
  --json-out "$REPO_ROOT/BENCH_alloc_deadline.json"
echo "wrote $REPO_ROOT/BENCH_alloc_deadline.json"
python3 "$REPO_ROOT/scripts/check_deadline_regression.py" \
  "$REPO_ROOT/BENCH_alloc_deadline.json"
