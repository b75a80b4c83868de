#!/usr/bin/env bash
# Build and run the end-to-end train-step micro-benchmark, emitting
# BENCH_train_step.json in the repo root: a per-stage breakdown
# (cull/project/bin/composite/loss fwd+bwd/rasterizer bwd/adam) so the
# perf trajectory of the *whole* training step is tracked across PRs,
# plus the SAT-loss speedup over the retained brute-force reference and
# a per-kernel-table backward sweep (raster_bwd_by_backend: every SIMD
# backend the CPU supports, forced one at a time on the same inputs,
# with forward/backward_bitwise_identical flags from hashing the image
# and all gradient buffers across backends).
#
# The JSON includes a machine/build context block (host CPU model and
# logical CPU count, thread count, compiler, build-baseline "simd" ISA,
# runtime-dispatched "simd_dispatch" backend); pin the worker count with
# CLM_THREADS=N for comparable runs, and force the dispatched backend
# with CLM_SIMD=avx2|sse2|neon|scalar.
#
# Uses a dedicated build-release/ tree so it never flips the cached
# build type of the default build/ directory that verify.sh uses.
#
# Usage: scripts/bench_train_step.sh [--smoke] [--no-ref]
#   --smoke   tiny single-rep run (CI "builds and runs" gate)
#   --no-ref  skip the brute-force loss baseline timing
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$JOBS" --target micro_train_step
./build-release/micro_train_step "$@" --out BENCH_train_step.json

# Judge this run against the matched-context bench history, then record
# it (bench/history/train_step.jsonl). Exits non-zero on a breached regression
# or an embedded SLO breach. Skip with CLM_BENCH_GATE=off; bless a new
# baseline after an intentional perf change with
#   python3 scripts/bench_gate.py bless --bench train_step --context-of BENCH_train_step.json
if [ "${CLM_BENCH_GATE:-on}" != "off" ]; then
  python3 scripts/bench_gate.py gate --bench train_step --json BENCH_train_step.json
fi
