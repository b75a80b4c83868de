/**
 * @file
 * Shared infrastructure for the benchmark harnesses: synthetic sim-profile
 * workloads (scene + camera path + in-frustum sets), batch sampling, and
 * the simulate-throughput loop every performance figure uses.
 *
 * Each bench binary reproduces one table/figure of the paper and prints
 * measured values next to the paper's reported ones where applicable.
 * Absolute numbers come from the calibrated event simulator; the claims
 * to check are the *shapes* (who wins, by what factor, where crossovers
 * fall).
 */

#ifndef CLM_BENCH_COMMON_HPP
#define CLM_BENCH_COMMON_HPP

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "math/simd_backend.hpp"
#include "util/thread_pool.hpp"
#include "offload/frustum_sets.hpp"
#include "offload/planner.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "sim/cost_model.hpp"
#include "sim/device_spec.hpp"
#include "sim/engine.hpp"
#include "sim/memory_model.hpp"
#include "sim/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace clm::bench {

/** A scene's sim-profile instantiation with precomputed frustum sets. */
struct SimWorkload
{
    SceneSpec spec;
    GaussianModel model;
    std::vector<Camera> cameras;
    FrustumSets sets;

    /**
     * Build the workload. @p fraction scales the profile down for faster
     * harness runs (1.0 = the full sim profile).
     */
    static SimWorkload
    load(const SceneSpec &spec, double fraction = 1.0)
    {
        SimWorkload w;
        w.spec = spec;
        size_t n = static_cast<size_t>(spec.sim.n_gaussians * fraction);
        int views =
            std::max(spec.batch_size + 1,
                     static_cast<int>(spec.sim.n_views * fraction));
        w.model = generateSceneGaussians(spec, n);
        w.cameras = generateCameraPath(spec, views, spec.sim.width,
                                       spec.sim.height);
        w.sets = computeFrustumSets(w.model, w.cameras);
        return w;
    }

    double pixelsPerView() const
    { return double(spec.sim.width) * spec.sim.height; }
};

/** Sample @p count random batches of view indices. */
inline std::vector<std::vector<int>>
sampleBatches(size_t n_views, int batch_size, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<int>> batches(count);
    for (auto &b : batches)
        for (int i = 0; i < batch_size; ++i)
            b.push_back(static_cast<int>(
                rng.uniformInt(0, static_cast<int64_t>(n_views) - 1)));
    return batches;
}

/** Build the planner workload for one sampled batch at target scale. */
inline BatchWorkload
makeBatchWorkload(const SimWorkload &w, const std::vector<int> &view_ids,
                  double n_target)
{
    BatchWorkload wl;
    for (int v : view_ids) {
        wl.sets.push_back(w.sets.sets[v]);
        wl.camera_centers.push_back(w.cameras[v].eye());
    }
    wl.n_synthetic = w.model.size();
    wl.n_target = n_target;
    wl.pixels_per_view = w.pixelsPerView();
    return wl;
}

/** Aggregated result of simulating several batches. */
struct ThroughputResult
{
    double images_per_sec = 0;
    double mean_batch_seconds = 0;
    double h2d_bytes_per_batch = 0;
    double d2h_bytes_per_batch = 0;
    double adam_trailing_seconds = 0;
    RuntimeBreakdown breakdown;          //!< Of the last batch.
    HardwareUtilization utilization;     //!< Of the last batch.
    std::vector<double> idle_samples;    //!< Of the last batch.
};

/** Simulate @p n_batches batches of @p config's system on @p device. */
inline ThroughputResult
simulateThroughput(PlannerConfig config, const SimWorkload &w,
                   double n_target, const DeviceSpec &device,
                   int n_batches = 3, uint64_t seed = 1)
{
    CostModel cost(device);
    auto batches = sampleBatches(w.cameras.size(), w.spec.batch_size,
                                 n_batches, seed);
    ThroughputResult res;
    double total_time = 0;
    int total_images = 0;
    for (const auto &ids : batches) {
        BatchWorkload wl = makeBatchWorkload(w, ids, n_target);
        config.seed = seed++;
        BatchPlanResult plan = planBatch(config, wl);
        Timeline tl = simulate(plan.plan, cost);
        total_time += tl.makespan;
        total_images += static_cast<int>(ids.size());
        res.h2d_bytes_per_batch = plan.plan.h2dBytes();
        res.d2h_bytes_per_batch = plan.plan.d2hBytes();
        res.adam_trailing_seconds = adamTrailingSeconds(plan.plan, tl);
        res.breakdown = computeBreakdown(plan.plan, tl);
        res.utilization = computeUtilization(plan.plan, tl, device);
        res.idle_samples = gpuIdleSamples(plan.plan, tl, 2000);
    }
    res.images_per_sec = total_images / total_time;
    res.mean_batch_seconds = total_time / n_batches;
    return res;
}

/** Millions, formatted like the paper's figures. */
inline std::string
fmtMillions(double n, int digits = 1)
{
    return Table::fmt(n / 1e6, digits);
}

/**
 * The host a bench ran on: the CPU model name (from /proc/cpuinfo,
 * "unknown" where it has none) and the logical CPU count, e.g.
 * "AMD EPYC 7B13 x4". Part of the context key, so a record made on one
 * machine never baselines a run on another.
 */
inline std::string
hostName()
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        const size_t colon = line.find(':');
        if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
            continue;
        const size_t begin = line.find_first_not_of(" \t", colon + 1);
        if (begin != std::string::npos)
            model = line.substr(begin);
        break;
    }
    // Keep the name a plain JSON string.
    for (char &c : model)
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
            c = ' ';
    return model + " x"
         + std::to_string(std::thread::hardware_concurrency());
}

/**
 * Machine/build context block for BENCH_*.json files, so recorded perf
 * points are comparable across runs: the host (hostName()), worker-
 * thread count (and whether CLM_THREADS pinned it), compiler, the
 * compile-time SIMD baseline (`"simd"`) and the runtime-dispatched
 * kernel backend actually executing (`"simd_dispatch"` — CPUID choice,
 * or the CLM_SIMD override). Emitted as a `"context": {...},` line
 * inside the top-level JSON object.
 */
inline void
writeJsonContext(std::ostream &f)
{
    const char *env_threads = std::getenv("CLM_THREADS");
    f << "  \"context\": {\"host\": \"" << hostName()
      << "\", \"threads\": " << ThreadPool::global().threads()
      << ", \"clm_threads_env\": ";
    if (env_threads)
        f << "\"" << env_threads << "\"";
    else
        f << "null";
    f << ", \"compiler\": \""
#if defined(__clang__)
      << "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
      << "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
      << "unknown"
#endif
      << "\", \"simd\": \"" << simdIsaName() << "\", \"simd_dispatch\": \""
      << simdDispatchName() << "\", \"build\": \""
#ifdef NDEBUG
      << "release"
#else
      << "debug"
#endif
      << "\"},\n";
}

/** The matching one-line console context ("(threads: N, simd: ...)"),
 *  so every bench binary reports the same facts the same way. */
inline std::string
contextLine()
{
    return "(threads: " + std::to_string(ThreadPool::global().threads())
         + ", simd: " + simdDispatchName() + ", build baseline: "
         + simdIsaName() + ")";
}

} // namespace clm::bench

#endif // CLM_BENCH_COMMON_HPP
