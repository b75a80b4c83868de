#include "train/trainer.hpp"

#include <algorithm>

#include "math/simd_backend.hpp"
#include "obs/trace.hpp"
#include "render/culling.hpp"
#include "serve/snapshot.hpp"
#include "shard/sharded_snapshot.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "util/logging.hpp"

namespace clm {

Trainer::Trainer(GaussianModel model, std::vector<Camera> cameras,
                 std::vector<Image> ground_truth, TrainConfig config)
    : model_(std::move(model)), cameras_(std::move(cameras)),
      ground_truth_(std::move(ground_truth)), config_(config),
      adam_(config.adam), rng_(config.seed)
{
    CLM_ASSERT(cameras_.size() == ground_truth_.size(),
               "one ground-truth image per camera required");
    CLM_ASSERT(!cameras_.empty(), "need at least one view");
    adam_.reset(model_.size());
    // One startup line so training logs record which SIMD kernel table
    // the run dispatched to (CLM_SIMD can override the CPUID choice).
    static const bool logged_simd = [] {
        inform("render kernels: ", simdDispatchName(),
               " (build ", simdIsaName(), ")");
        return true;
    }();
    (void)logged_simd;
}

std::vector<BatchStats>
Trainer::trainSteps(int steps)
{
    std::vector<BatchStats> stats;
    stats.reserve(steps);
    for (int s = 0; s < steps; ++s) {
        std::vector<int> ids;
        ids.reserve(config_.batch_size);
        for (int b = 0; b < config_.batch_size; ++b)
            ids.push_back(static_cast<int>(
                rng_.uniformInt(0, cameras_.size() - 1)));
        stats.push_back(trainBatch(ids));
        // Step boundary: no batch is in flight, so the model is a
        // consistent state — safe to hand to concurrent readers.
        publishSnapshot();
    }
    return stats;
}

void
Trainer::setSnapshotSink(SnapshotSlot *slot)
{
    // Rows recorded since a publish to another slot say nothing about
    // this one's current snapshot: its first publish copies every row.
    adam_.markAllChanged();
    snapshot_sink_ = slot;
    publishSnapshot();    // readers get the pre-training state at once
}

void
Trainer::setShardedSink(ShardedSnapshotSlot *slot)
{
    CLM_ASSERT(slot == nullptr || snapshot_sink_ != nullptr,
               "sharded sink requires a snapshot sink (shards are "
               "carved from published ModelSnapshots)");
    sharded_sink_ = slot;
    // Seed from the already-published snapshot (setSnapshotSink
    // guarantees one exists) instead of republishing: the model hasn't
    // changed, so bumping the version here would only invalidate
    // snapshot-keyed serving caches and inflate served version spans.
    if (slot != nullptr)
        slot->publish(snapshot_sink_->acquire());
}

void
Trainer::publishSnapshot()
{
    // Unconditional: a reader attaching at ANY later point must find
    // the latest step's state, so every boundary republishes; skipping
    // republishes while the slot is idle would hand late-attaching
    // readers a stale model. A full copy + hash is O(model) — about a
    // quarter of a 300k-Gaussian city step — so the publish passes the
    // rows Adam changed since the last one and the slot copies and
    // rehashes only those (CpuAdam's record is unknown after
    // construction and densify, which makes that publish a full one).
    if (snapshot_sink_ != nullptr) {
        ScopedSpan span("train.publish");
        const bool known = adam_.takeChangedRows(publish_rows_);
        snapshot_sink_->publish(model(), batches_done_,
                                known ? &publish_rows_ : nullptr);
        // Sharded republish at the same point; the slot no-ops unless
        // the version advanced, so this re-partitions exactly once per
        // model change.
        if (sharded_sink_ != nullptr)
            sharded_sink_->publish(snapshot_sink_->acquire());
    }
}

double
Trainer::evaluatePsnr() const
{
    const GaussianModel &m = model();
    double acc = 0.0;
    for (size_t v = 0; v < cameras_.size(); ++v) {
        auto subset = frustumCull(m, cameras_[v]);
        const RenderOutput &out =
            renderForward(m, cameras_[v], subset, config_.render, arena_);
        acc += out.image.psnr(ground_truth_[v]);
    }
    return acc / cameras_.size();
}

void
Trainer::enableDensification(DensifyConfig config)
{
    densifier_ = Densifier(config);
    densifier_.reset(model_.size());
    densify_enabled_ = true;
}

void
Trainer::observeDensify(const GaussianGrads &grads)
{
    if (densify_enabled_)
        densifier_.observe(grads);
}

DensifyStats
Trainer::densifyNow()
{
    CLM_ASSERT(densify_enabled_, "enableDensification() first");
    DensifyStats stats = densifier_.densify(model_, adam_, rng_);
    onModelResized();
    // Densification restructures the model; republish so serving reads
    // the new topology instead of a retired snapshot for too long.
    publishSnapshot();
    return stats;
}

int
Trainer::activeShDegree() const
{
    if (config_.sh_degree_interval <= 0)
        return config_.render.sh_degree;
    return std::min(config_.render.sh_degree,
                    batches_done_ / config_.sh_degree_interval);
}

RenderConfig
Trainer::activeRenderConfig() const
{
    RenderConfig cfg = config_.render;
    cfg.sh_degree = activeShDegree();
    return cfg;
}

double
Trainer::renderAndBackprop(const GaussianModel &m, int v,
                           const std::vector<uint32_t> &subset,
                           GaussianGrads &grads)
{
    const Camera &cam = cameras_[v];
    RenderConfig render = activeRenderConfig();
    // StageClock: per-step spans (train.forward / train.loss /
    // train.backward) with zero cost when tracing is off.
    StageClock stage_clock;
    const RenderOutput &out =
        renderForward(m, cam, subset, render, arena_);
    stage_clock.lap("train.forward");
    Image d_image;
    LossResult loss = computeLoss(out.image, ground_truth_[v], &d_image,
                                  config_.loss, loss_scratch_);
    stage_clock.lap("train.loss");
    renderBackward(m, cam, render, out, d_image, grads, arena_);
    stage_clock.lap("train.backward");
    return loss.total;
}

GpuOnlyTrainer::GpuOnlyTrainer(GaussianModel model,
                               std::vector<Camera> cameras,
                               std::vector<Image> ground_truth,
                               TrainConfig config)
    : Trainer(std::move(model), std::move(cameras), std::move(ground_truth),
              config)
{
    grads_.resize(model_.size());
}

BatchStats
GpuOnlyTrainer::trainBatch(const std::vector<int> &view_ids)
{
    noteBatchStart();
    BatchStats stats;
    grads_.zero();

    std::vector<uint32_t> touched;
    if (config_.fused_batch && view_ids.size() > 1) {
        // Fused multi-view step: one batched cull, one fused forward
        // with retained staging, one fused backward. Bitwise identical
        // to the sequential loop below — per-view frames, gradients and
        // the Adam subset (the union IS sort+unique of the concatenated
        // subsets) all match, so the trajectory is unchanged.
        const size_t B = view_ids.size();
        RenderConfig render = activeRenderConfig();
        std::vector<Camera> cams;
        cams.reserve(B);
        for (int v : view_ids)
            cams.push_back(cameras_[v]);
        std::vector<std::vector<uint32_t>> subsets;
        StageClock stage_clock;
        frustumCullBatch(model_, cams, batch_arena_.cull, subsets,
                         render.parallel);
        stage_clock.lap("render.cull");
        batch_arena_.retain_staging = true;
        renderForwardBatch(model_, cams, subsets, render, batch_arena_);
        stage_clock.lap("train.forward");
        d_images_.resize(B);
        for (size_t i = 0; i < B; ++i) {
            stats.gaussians_rendered += subsets[i].size();
            LossResult loss = computeLoss(
                batch_arena_.views[i].out.image,
                ground_truth_[view_ids[i]], &d_images_[i], config_.loss,
                loss_scratch_);
            stats.loss += loss.total;
        }
        stage_clock.lap("train.loss");
        renderBackwardBatch(model_, cams, render, d_images_, grads_,
                            batch_arena_);
        stage_clock.lap("train.backward");
        touched = batch_arena_.union_indices;
    } else {
        for (int v : view_ids) {
            std::vector<uint32_t> subset;
            {
                ScopedSpan span("render.cull");
                subset = frustumCull(model_, cameras_[v]);
            }
            stats.gaussians_rendered += subset.size();
            stats.loss += renderAndBackprop(model_, v, subset, grads_);
            touched.insert(touched.end(), subset.begin(), subset.end());
        }
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
    }
    stats.loss /= view_ids.size();

    {
        ScopedSpan span("train.adam");
        adam_.updateSubset(model_, grads_, touched);
    }
    stats.adam_updated = touched.size();
    observeDensify(grads_);
    return stats;
}

std::unique_ptr<Trainer>
makeTrainer(SystemKind system, GaussianModel model,
            std::vector<Camera> cameras, std::vector<Image> ground_truth,
            TrainConfig config)
{
    switch (system) {
      case SystemKind::Baseline:
      case SystemKind::EnhancedBaseline:
        return std::make_unique<GpuOnlyTrainer>(
            std::move(model), std::move(cameras), std::move(ground_truth),
            config);
      case SystemKind::NaiveOffload:
        return std::make_unique<NaiveOffloadTrainer>(
            std::move(model), std::move(cameras), std::move(ground_truth),
            config);
      case SystemKind::Clm:
        return std::make_unique<ClmTrainer>(
            std::move(model), std::move(cameras), std::move(ground_truth),
            config);
    }
    CLM_PANIC("unreachable system kind");
}

} // namespace clm
