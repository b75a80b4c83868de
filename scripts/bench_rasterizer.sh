#!/usr/bin/env bash
# Build and run the rasterizer micro-benchmark, emitting
# BENCH_rasterizer.json in the repo root so the perf trajectory of the
# render hot path is tracked across PRs.
#
# The JSON includes a machine/build context block (host CPU model and
# logical CPU count, thread count, compiler, SIMD backend), so recorded
# points are comparable across runs; pin the worker count with
# CLM_THREADS=N.
#
# Uses a dedicated build-release/ tree so it never flips the cached
# build type of the default build/ directory that verify.sh uses.
#
# Usage: scripts/bench_rasterizer.sh [--smoke]
#   --smoke  tiny single-rep run (CI "builds and runs" gate, no numbers
#            worth recording)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$JOBS" --target micro_rasterizer
./build-release/micro_rasterizer "$@" --out BENCH_rasterizer.json

# Judge this run against the matched-context bench history, then record
# it (bench/history/rasterizer.jsonl). Exits non-zero on a breached regression
# or an embedded SLO breach. Skip with CLM_BENCH_GATE=off; bless a new
# baseline after an intentional perf change with
#   python3 scripts/bench_gate.py bless --bench rasterizer --context-of BENCH_rasterizer.json
if [ "${CLM_BENCH_GATE:-on}" != "off" ]; then
  python3 scripts/bench_gate.py gate --bench rasterizer --json BENCH_rasterizer.json
fi
