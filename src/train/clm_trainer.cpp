#include "train/clm_trainer.hpp"

#include "util/logging.hpp"
#include "util/timer.hpp"

namespace clm {

namespace {

TransferEngineConfig
engineConfig(const TrainConfig &config)
{
    TransferEngineConfig ec;
    ec.prefetch = config.prefetch;
    ec.async_finalize = config.async_adam;
    return ec;
}

} // namespace

ClmTrainer::ClmTrainer(GaussianModel model, std::vector<Camera> cameras,
                       std::vector<Image> ground_truth, TrainConfig config)
    : Trainer(std::move(model), std::move(cameras),
              std::move(ground_truth), config),
      ctx_(model_, adam_, densifier_),
      engine_(model_.size(), engineConfig(config_))
{
    engine_.setFinalizeFn([this](const std::vector<uint32_t> &fin) {
        return ctx_.finalize(engine_.pool(), fin, densificationEnabled());
    });
    engine_.uploadParams(model_);
}

void
ClmTrainer::onModelResized()
{
    ctx_.rebuild();
    engine_.reset(model_.size());
    engine_.uploadParams(model_);
}

DensifyStats
ClmTrainer::densifyNow()
{
    // The finalization thread holds references into the offload state;
    // quiesce it before restructuring (the real system synchronizes the
    // stream and the Adam thread before densification for the same
    // reason).
    engine_.drain();
    return Trainer::densifyNow();
}

BatchStats
ClmTrainer::trainBatch(const std::vector<int> &view_ids)
{
    noteBatchStart();
    BatchStats stats;
    size_t b = view_ids.size();
    CLM_ASSERT(b > 0, "empty batch");

    // 1. Pre-rendering frustum culling (§5.1) + batch planning (§4.2):
    // ordering, caching, finalization — the Figure 13 scheduling stage.
    Timer sched;
    BatchWorkload wl = ctx_.buildWorkload(cameras_, view_ids);
    PlannerConfig pc = config_.planner;
    pc.system = SystemKind::Clm;
    const BatchPlanResult &plan = ctx_.planViews(pc, wl);
    engine_.addStageTime(TrainStage::Schedule, sched);

    // 2. Execute microbatches in planned order through the engine.
    engine_.beginBatch(ctx_.orderedSets(wl), plan.cache, plan.fin);
    for (size_t i = 0; i < b; ++i) {
        int view = view_ids[plan.order[i]];
        DeviceBuffer &buf = engine_.acquire(i);
        const std::vector<uint32_t> &set = buf.indices();

        // Materialize render inputs, then forward + backward.
        ctx_.materialize(buf);
        ctx_.scratchGrads().zeroRows(set);
        stats.gaussians_rendered += set.size();
        stats.loss += renderAndBackprop(ctx_.scratch(), view, set,
                                        ctx_.scratchGrads());

        // Microbatch gradients into the device buffer rows.
        accumulateGradRows(ctx_.scratchGrads(), buf);
        engine_.release(i);
    }
    // The batch completes only when the finalization thread has applied
    // every queued update (the next batch's culling must see them).
    engine_.endBatch();

    const TransferEngine::Counters &c = engine_.counters();
    stats.h2d_bytes = static_cast<double>(c.records_loaded)
                      * kNonCriticalBytesPerGaussian;
    stats.d2h_bytes =
        static_cast<double>(c.records_stored) * kGradBytesPerGaussian;
    stats.cache_hits = c.cache_hits;
    stats.adam_updated = c.finalized;
    stats.loss /= b;
    return stats;
}

} // namespace clm
