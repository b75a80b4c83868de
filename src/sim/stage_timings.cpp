#include "sim/stage_timings.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace clm {

const char *
stageName(TrainStage s)
{
    switch (s) {
      case TrainStage::Schedule:
        return "Schedule";
      case TrainStage::Gather:
        return "Gather";
      case TrainStage::CacheCopy:
        return "CacheCopy";
      case TrainStage::Compute:
        return "Compute";
      case TrainStage::Scatter:
        return "Scatter";
      case TrainStage::Carry:
        return "Carry";
      case TrainStage::Finalize:
        return "Finalize";
    }
    CLM_PANIC("unreachable stage");
}

const char *
stageSpanName(TrainStage s)
{
    switch (s) {
      case TrainStage::Schedule:
        return "train.schedule";
      case TrainStage::Gather:
        return "train.gather";
      case TrainStage::CacheCopy:
        return "train.cachecopy";
      case TrainStage::Compute:
        return "train.compute";
      case TrainStage::Scatter:
        return "train.scatter";
      case TrainStage::Carry:
        return "train.carry";
      case TrainStage::Finalize:
        return "train.finalize";
    }
    CLM_PANIC("unreachable stage");
}

void
StageTimings::add(TrainStage s, double secs, Timer::Clock::time_point start)
{
    seconds[static_cast<size_t>(s)] += secs;
    count[static_cast<size_t>(s)] += 1;
    if (Tracer *tracer = Tracer::current()) {
        const uint64_t t0_ns = tracer->toNs(start);
        const uint64_t dur_ns = secs > 0
            ? static_cast<uint64_t>(secs * 1e9) : 0;
        tracer->record(stageSpanName(s), currentTraceId(), t0_ns,
                       t0_ns + dur_ns);
    }
}

void
StageTimings::add(TrainStage s, double secs)
{
    add(s, secs,
        Timer::Clock::now()
            - std::chrono::duration_cast<Timer::Clock::duration>(
                std::chrono::duration<double>(secs)));
}

void
StageTimings::noteMicrobatch(double wait_seconds, double compute_seconds)
{
    if (microbatches.size() < kMaxMicrobatchSamples)
        microbatches.push_back({wait_seconds, compute_seconds});
}

void
StageTimings::merge(const StageTimings &other)
{
    for (int s = 0; s < kNumTrainStages; ++s) {
        seconds[s] += other.seconds[s];
        count[s] += other.count[s];
    }
    microbatches.insert(microbatches.end(), other.microbatches.begin(),
                        other.microbatches.end());
    batch_seconds += other.batch_seconds;
    trailing_adam_seconds += other.trailing_adam_seconds;
    finalize_inline = finalize_inline || other.finalize_inline;
}

void
StageTimings::reset()
{
    seconds.fill(0);
    count.fill(0);
    microbatches.clear();
    batch_seconds = 0;
    trailing_adam_seconds = 0;
    finalize_inline = false;
}

double
StageTimings::total() const
{
    double acc = 0;
    for (double s : seconds)
        acc += s;
    return acc;
}

double
StageTimings::communication() const
{
    return (*this)[TrainStage::Gather] + (*this)[TrainStage::CacheCopy]
           + (*this)[TrainStage::Scatter] + (*this)[TrainStage::Carry];
}

void
StageTimings::exportTo(MetricsRegistry &registry) const
{
    for (int s = 0; s < kNumTrainStages; ++s) {
        const std::string base =
            std::string("train.stage.") + stageName(static_cast<TrainStage>(s));
        // Counters are monotonic: re-exporting adds the delta a caller
        // accumulated since reset(); gauges are last-write-wins.
        registry.counter(base + ".calls").add(count[s]);
        registry.gauge(base + ".busy_s").set(seconds[s]);
    }
    registry.gauge("train.batch_s").set(batch_seconds);
    registry.gauge("train.trailing_adam_s").set(trailing_adam_seconds);
}

} // namespace clm
