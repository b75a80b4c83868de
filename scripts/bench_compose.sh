#!/usr/bin/env bash
# Build and run the composed-serving micro-benchmark, emitting
# BENCH_compose.json in the repo root: requests/sec and p50/p99 latency
# of the RenderService across the batch x shards grid {1,4} x {1,8} on
# city-scale models with a single render worker, plus the headline
# composed_speedup (batch=4, K=8 vs view-at-a-time unsharded) and a
# bitwise-identity flag per grid point (composed frames are verified
# hash-identical to sequential unsharded renderForward — under the
# dispatched SIMD kernel table AND the forced scalar table — before
# timing).
#
# The JSON includes the machine/build context block (host CPU model
# and logical CPU count, thread count, compiler, SIMD backend). Worker
# threads default to CLM_THREADS=1 so recorded points are
# single-core-comparable across runs; export CLM_THREADS to override.
#
# Uses the shared build-release/ tree so it never flips the cached
# build type of the default build/ directory that verify.sh uses.
#
# Usage: scripts/bench_compose.sh [--smoke]
#   --smoke   tiny single-case run (CI "builds and runs" gate)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
export CLM_THREADS="${CLM_THREADS:-1}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$JOBS" --target micro_compose
./build-release/micro_compose "$@" --out BENCH_compose.json

# Judge this run against the matched-context bench history, then record
# it (bench/history/compose.jsonl). Exits non-zero on a breached regression
# or an embedded SLO breach. Skip with CLM_BENCH_GATE=off; bless a new
# baseline after an intentional perf change with
#   python3 scripts/bench_gate.py bless --bench compose --context-of BENCH_compose.json
if [ "${CLM_BENCH_GATE:-on}" != "off" ]; then
  python3 scripts/bench_gate.py gate --bench compose --json BENCH_compose.json
fi
