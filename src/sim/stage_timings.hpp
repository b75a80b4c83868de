/**
 * @file
 * Measured per-stage wall-clock accounting for the offload pipeline. The
 * TransferEngine (and the trainers driving it) stamp every pipeline stage
 * — scheduling, pinned-pool gather, cached copy, compute, RMW gradient
 * scatter, carried-gradient accumulation, finalization Adam — into a
 * StageTimings record. sim/metrics converts the record into the same
 * RuntimeBreakdown / idle-sample shapes the discrete-event simulator
 * produces, so the Figure 13/15 benches can print measured stage timers
 * next to simulated ones instead of recomputing either.
 */

#ifndef CLM_SIM_STAGE_TIMINGS_HPP
#define CLM_SIM_STAGE_TIMINGS_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/timer.hpp"

namespace clm {

class MetricsRegistry;

/** The instrumented stages of one offloaded training batch. */
enum class TrainStage : uint8_t
{
    Schedule = 0,    //!< Culling + batch planning (ordering, cache, fin).
    Gather,          //!< Selective pinned->device parameter gather (H2D).
    CacheCopy,       //!< Device-to-device cached parameter copy.
    Compute,         //!< Forward + backward of one microbatch.
    Scatter,         //!< RMW gradient offload device->pinned (D2H).
    Carry,           //!< On-device carried-gradient accumulation.
    Finalize,        //!< Subset CPU Adam + parameter write-back.
};

constexpr int kNumTrainStages = 7;

/** Short display name of a stage (bench table headers). */
const char *stageName(TrainStage s);

/** Tracer span name of a stage ("train.schedule", "train.gather", ...;
 *  a string literal, as the tracer requires). */
const char *stageSpanName(TrainStage s);

/** Accumulated measured stage timings, potentially over several batches. */
struct StageTimings
{
    /** Busy seconds per stage (indexed by TrainStage). */
    std::array<double, kNumTrainStages> seconds{};
    /** Number of timed invocations per stage. */
    std::array<uint64_t, kNumTrainStages> count{};

    /** One microbatch as the compute engine saw it: how long it stalled
     *  waiting for staging, then how long it computed. */
    struct Microbatch
    {
        double wait = 0;       //!< Exposed staging stall (GPU idle).
        double compute = 0;    //!< Forward + backward busy time.
    };
    std::vector<Microbatch> microbatches;

    /** Wall-clock seconds across all accounted batches. */
    double batch_seconds = 0;
    /** Finalization work left after the last gradient scatter (the
     *  Table 5b "trailing Adam" quantity, measured). */
    double trailing_adam_seconds = 0;
    /** True when finalization ran inline on the critical path (no
     *  dedicated Adam thread): then *all* Finalize time is
     *  non-overlapped, regardless of where it fell in the batch. */
    bool finalize_inline = false;

    /** Per-microbatch samples are capped at this many entries (the
     *  scalar stage counters keep accumulating past the cap), bounding
     *  memory over production-length runs. */
    static constexpr size_t kMaxMicrobatchSamples = 1u << 16;

    /** Busy seconds of one stage. */
    double operator[](TrainStage s) const
    { return seconds[static_cast<size_t>(s)]; }

    /** Record @p secs of busy time for stage @p s, which started at
     *  @p start. When the global tracer is enabled, also records a
     *  train.<stage> span [start, start + secs] — the offload
     *  pipeline's stage accounting and the tracer share this single
     *  entry point. Stamping from the start (not from "now") keeps the
     *  span in place when the caller waited between the stage's end and
     *  this call, so spans recorded inside the stage (e.g. render.cull
     *  in Schedule) nest inside it. */
    void add(TrainStage s, double secs, Timer::Clock::time_point start);

    /** Same, for a stage that ended just now. */
    void add(TrainStage s, double secs);

    /** Record one microbatch's (stall, compute) pair. */
    void noteMicrobatch(double wait_seconds, double compute_seconds);

    /** Fold @p other into this record. */
    void merge(const StageTimings &other);

    /** Discard everything. */
    void reset();

    /** Sum of all stage busy seconds. */
    double total() const;

    /** Transfer busy seconds: gather + cached copy + scatter + carry. */
    double communication() const;

    /** Publish the record into @p registry: counter
     *  train.stage.<name>.calls and gauge train.stage.<name>.busy_s
     *  per stage, plus train.batch_s / train.trailing_adam_s gauges —
     *  how the offload stage accounting reaches the unified
     *  JSON-lines metrics snapshot. */
    void exportTo(MetricsRegistry &registry) const;
};

} // namespace clm

#endif // CLM_SIM_STAGE_TIMINGS_HPP
