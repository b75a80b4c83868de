/**
 * @file
 * Shared declarations of the end-to-end benchmark driver (see
 * README.md): run options, the metric/check record every workload
 * fills, and the entry points of the workload, ledger and probe
 * translation units.
 */

#ifndef CLM_PERFBENCH_BENCH_HPP
#define CLM_PERFBENCH_BENCH_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/clm.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;    //!< train-city | train-dense
    uint64_t seed = 1;
    double seconds = 10;     //!< Length of the timed window.
    bool trace = false;      //!< Traced run: emit the per-layer ledger.
    /** Traced run only: also run the decision probes (BVH, sharded
     *  replay). The thread-scaling rerun skips them. */
    bool probes = true;
    /** Traced run: write the traced window's Chrome trace here. */
    std::string trace_out;
};

/** Metric values (with units) and named output checks of one run. */
struct RunRecord
{
    struct Metric
    {
        double value = 0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;
    std::vector<std::pair<std::string, bool>> checks;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Extra JSON members (already formatted "key": value pairs). */
    std::vector<std::string> extra;

    void set(const std::string &name, double value, const char *unit)
    { metrics[name] = {value, unit}; }
    void check(const std::string &name, bool ok)
    { checks.emplace_back(name, ok); }
    bool correct() const;
};

/** Seconds on the benchmark's monotonic clock (process-wide epoch). */
double nowS();

/** Percentile @p q in [0, 100] by linear interpolation between order
 *  statistics; +inf entries (failed requests) sort last. 0 if empty. */
double percentile(std::vector<double> values, double q);

/** Peak resident set of this process (VmHWM), in MB. */
double peakRssMb();

/** Run one workload and fill @p out. */
void runWorkload(const Options &opt, RunRecord &out);

/** @name Ledger (ledger.cpp) */
/// @{
/** Aggregate of all spans sharing one name. */
struct SpanTotals
{
    uint64_t calls = 0;
    double total_ms = 0;    //!< Sum of span durations.
    double self_ms = 0;     //!< Minus the part child spans cover.
    double meanMs() const { return calls ? total_ms / calls : 0; }
};
using Ledger = std::map<std::string, SpanTotals>;

/** Self time of each thread-scoped span: its duration minus the union
 *  of the spans nested inside it on the same thread. Cross-thread
 *  (async) spans count calls and total time only. */
Ledger buildLedger(const std::vector<clm::SpanRecord> &spans);

/** Mean duration (ms) of the spans named @p name; 0 if none. */
double spanMeanMs(const Ledger &ledger, const char *name);

/** Ledger as a JSON object member ("ledger": {...}). */
std::string ledgerJson(const Ledger &ledger);
/// @}

/** @name Standalone layer probes (probes.cpp) */
/// @{
/** Time frustumCull, planBatch, orderViews, SnapshotSlot::publish and
 *  an idle ThreadPool::parallelFor on the session's model and
 *  @p cameras; record render.cull_ms, render.visible_frac,
 *  offload.plan_ms, sched.order_ms, sched.order_repeat_frac,
 *  serve.publish_ms and util.pool_idle_ms. */
void probeLayers(const clm::Clm &session,
                 const std::vector<clm::Camera> &cameras, uint64_t seed,
                 RunRecord &out);

/** GaussianBvh build/cull/refit against the linear cull on the same
 *  model and cameras; checks the index sets are identical. */
void probeBvh(const clm::GaussianModel &model,
              const std::vector<clm::Camera> &cameras, RunRecord &out);

/** Replay @p cameras (in order) through an unsharded and a K=8
 *  sharded RenderService on @p session's current snapshot, with
 *  @p tracer recording the sharded replay; checks frames agree. */
void probeShards(clm::Clm &session, const std::vector<clm::Camera> &cameras,
                 clm::Tracer &tracer, RunRecord &out);

/** Issues a trivial 64-item parallelFor on the global pool at a fixed
 *  interval from its own thread and records how long each took. */
class PoolProbe
{
  public:
    explicit PoolProbe(double interval_s);
    ~PoolProbe();
    PoolProbe(const PoolProbe &) = delete;
    PoolProbe &operator=(const PoolProbe &) = delete;

    /** Stop and join the probe thread; returns the samples (ms). */
    std::vector<double> stop();

  private:
    void loop(double interval_s);

    std::atomic<bool> stop_{false};
    std::vector<double> samples_ms_;    //!< Owned by thread_ until joined.
    std::thread thread_;
};
/// @}

} // namespace perfbench

#endif // CLM_PERFBENCH_BENCH_HPP
