#!/usr/bin/env python3
"""End-to-end benchmark of the CLM library (see perfbench/README.md).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_e2e from the checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload with CLM_THREADS pinned and the process pinned to one CPU,
prints every metric by name with its unit, and prints as the last line
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs the workload traced twice, at the pinned thread count and at
CLM_THREADS=4, and reports the per-layer metrics (the four-thread
ledger under the "t4." prefix). Full records, including the run context
and, for traced runs, the span ledger and a Chrome trace, are written
under the build directory's runs/.

Exit status: 0 when every output check passed, 1 when a check failed or
a metric is missing, 2 when the checkout cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train-city", "train-dense")
# Pool size (CLM_THREADS) of every end-to-end run and of the first
# traced run; those runs are also pinned to one CPU. On a shared
# multi-tenant VM, runs spread over several vCPUs lose a varying share
# of their time to the hypervisor and spread ~2x run to run; one pool
# thread on one CPU measured steady (see README.md).
THREADS = 1
# The traced run is repeated at this pool size (the thread-scaling
# ledger); these per-layer metrics are recorded again under "t4.".
SCALING_THREADS = 4
SCALING_KEYS = (
    "ledger.views_per_s", "train.step_ms.p50", "render.cull_ms",
    "render.forward_ms", "render.backward_ms", "render.project_ms",
    "render.bin_ms", "render.composite_ms", "offload.schedule_ms",
    "offload.plan_ms", "offload.stall_ms", "gaussian.adam_ms",
    "train.publish_ms", "serve.queue_wait_ms.p50", "serve.render_ms.p50",
    "util.pool_probe_ms.p99", "audit.batch_repeat_frac",
)
# Every run after the build must end within this many seconds.
RUN_BUDGET_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build perfbench_e2e; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "clm.hpp"))):
        fail("no CLM source tree next to perfbench/ (expected "
             "CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "perfbench_e2e", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir, os.path.join(build_dir, "perfbench_e2e")


def pinned_cpu():
    """The highest-numbered CPU this process may run on."""
    return max(os.sched_getaffinity(0))


def run_once(exe, args, threads, probes, trace_out, deadline):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--probes", "1" if probes else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, CLM_THREADS=str(threads))
    cpus = {pinned_cpu()} if threads == THREADS else None
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus
            else None)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_BUDGET_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("perfbench_e2e exited with status %d" % proc.returncode)
    record = json.loads(lines[-1])
    record["clm_threads"] = threads
    record["context"]["cpu_affinity"] = sorted(cpus) if cpus else "all"
    return record


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        manifest = json.load(f)
    return [m["name"] for m in manifest["per_layer" if trace
                                        else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 600:
        fail("--seconds must be in (0, 600]")

    build_dir, exe = build()
    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    deadline = time.monotonic() + RUN_BUDGET_S
    records = [run_once(exe, args, THREADS, True,
                        os.path.join(runs_dir, stem + ".trace.json")
                        if args.trace else None, deadline)]
    if args.trace:
        records.append(run_once(exe, args, SCALING_THREADS, False, None,
                                deadline))
    with open(os.path.join(runs_dir, stem + ".json"), "w") as f:
        json.dump(records, f, indent=1)

    metrics = dict(records[0]["metrics"])
    if args.trace:
        for key in SCALING_KEYS:
            if key in records[1]["metrics"]:
                metrics["t%d.%s" % (SCALING_THREADS, key)] = \
                    records[1]["metrics"][key]
    wanted = declared_metrics(bool(args.trace))
    # A non-finite value arrives as null and counts as missing.
    missing = [m for m in wanted
               if m not in metrics or metrics[m]["value"] is None]
    out = {m: metrics[m] for m in wanted if m not in missing}

    print("context: " + json.dumps(records[0]["context"]))
    for r in records:
        for name, ok in r["checks"].items():
            print("check %-38s %s (CLM_THREADS=%d)"
                  % (name, "ok" if ok else "FAILED", r["clm_threads"]))
    for name, m in out.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if missing:
        print("missing metrics: " + ", ".join(missing), file=sys.stderr)

    correct = all(r["correct"] for r in records) and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": out,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
