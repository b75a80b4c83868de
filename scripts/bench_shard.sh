#!/usr/bin/env bash
# Build and run the sharded-serving micro-benchmark, emitting
# BENCH_shard.json in the repo root: requests/sec and p50/p99 latency of
# the RenderService in sharded mode over city-scale models, swept across
# shard counts 1/2/4/8, with the per-view fraction of shards the frustum
# router pruned and a bitwise-identity flag (sharded frames are verified
# hash-identical to unsharded renderForward before timing).
#
# The JSON includes the machine/build context block (host CPU model
# and logical CPU count, thread count, compiler, SIMD backend). Worker
# threads default to CLM_THREADS=1 so recorded points are
# single-core-comparable across runs; export CLM_THREADS to override.
#
# Uses the shared build-release/ tree so it never flips the cached
# build type of the default build/ directory that verify.sh uses.
#
# Usage: scripts/bench_shard.sh [--smoke]
#   --smoke   tiny single-case run (CI "builds and runs" gate)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
export CLM_THREADS="${CLM_THREADS:-1}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$JOBS" --target micro_shard
./build-release/micro_shard "$@" --out BENCH_shard.json

# Judge this run against the matched-context bench history, then record
# it (bench/history/shard.jsonl). Exits non-zero on a breached regression
# or an embedded SLO breach. Skip with CLM_BENCH_GATE=off; bless a new
# baseline after an intentional perf change with
#   python3 scripts/bench_gate.py bless --bench shard --context-of BENCH_shard.json
if [ "${CLM_BENCH_GATE:-on}" != "off" ]; then
  python3 scripts/bench_gate.py gate --bench shard --json BENCH_shard.json
fi
