#!/usr/bin/env bash
# Emits the machine-readable perf trajectory, uploaded as CI artifacts on
# every run so the numbers accumulate into a history:
#
#   BENCH_e2e.json     — per-model wall latency of the fully optimized
#                        pipeline under sequential vs wavefront dispatch.
#   BENCH_kernels.json — the execution-engine trajectory: packed GEMM/conv
#                        per shape class at every kernel tier, the compiled
#                        DFT tape, fused-vs-unfused transformers, and the
#                        engine's latency per zoo model (exits non-zero if
#                        scalar and avx2 differ, or avx2fma / fused
#                        attention leave their tolerance — a correctness
#                        guard, not a timing one).
#
# Usable locally:
#   ./scripts/bench_json.sh                 # build/ + both JSON files
#   ./scripts/bench_json.sh build-release out.json kernels.json
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_e2e.json}"
KERNELS_OUT="${3:-BENCH_kernels.json}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" --target bench_fig7_breakdown \
      bench_table6_latency -j "$JOBS"

"$BUILD_DIR/bench_fig7_breakdown" --json "$OUT"
"$BUILD_DIR/bench_table6_latency" --json "$KERNELS_OUT"
echo "Perf trajectory written to $OUT and $KERNELS_OUT"
