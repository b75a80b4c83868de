/**
 * @file
 * Functional training drivers. All three trainers (GPU-only, naive
 * offload, CLM) implement the same minibatch-SGD-with-gradient-
 * accumulation algorithm over the shared differentiable rasterizer, so
 * their parameter trajectories are equivalent — the paper's offloading
 * techniques change *where* state lives and *when* updates run, never the
 * math. Both offloaded trainers are thin policies over the shared
 * offload subsystem (TrainerContext + TransferEngine): CLM enables
 * caching, prefetch overlap and finalization-driven subset Adam; naive
 * offloading stages the whole model synchronously each batch.
 */

#ifndef CLM_TRAIN_TRAINER_HPP
#define CLM_TRAIN_TRAINER_HPP

#include <memory>
#include <vector>

#include "gaussian/adam.hpp"
#include "gaussian/densify.hpp"
#include "gaussian/model.hpp"
#include "math/rng.hpp"
#include "offload/planner.hpp"
#include "render/arena.hpp"
#include "render/batch.hpp"
#include "render/camera.hpp"
#include "render/loss.hpp"
#include "render/rasterizer.hpp"

namespace clm {

class SnapshotSlot;
class ShardedSnapshotSlot;

/** Shared trainer settings. */
struct TrainConfig
{
    int batch_size = 4;
    RenderConfig render;
    LossConfig loss;
    AdamConfig adam;
    /** CLM-specific planning knobs (ordering, caching, overlap). */
    PlannerConfig planner;
    /** Every this many batches the active SH degree increases by one,
     *  up to render.sh_degree (reference 3DGS ramps every 1000 iters);
     *  0 disables the ramp. */
    int sh_degree_interval = 0;
    /** Run CLM's CPU Adam on a real dedicated thread (§5.4), overlapped
     *  with subsequent microbatches. Safe by the finalization property:
     *  a finalized Gaussian is never touched again within the batch, so
     *  the Adam thread and the render path access disjoint rows. */
    bool async_adam = false;
    /** Stage microbatch k+1 on the TransferEngine's worker thread while
     *  k computes (§5.3). Bit-identical to synchronous staging; disable
     *  to serialize transfers onto the critical path (the naive trainer
     *  always runs without prefetch). */
    bool prefetch = true;
    /** GPU-only trainer: run multi-view batches through the fused
     *  forward/backward pair (renderForwardBatch + renderBackwardBatch,
     *  render/batch.hpp) instead of view-at-a-time. The fused pair is
     *  bitwise identical to the sequential loop — same per-view frames,
     *  same gradients, same Adam subset — so the parameter trajectory
     *  is unchanged; disable to force the view-at-a-time reference
     *  path. Offloaded trainers ignore this (their microbatch
     *  scheduling is inherently view-at-a-time). */
    bool fused_batch = true;
    uint64_t seed = 42;
};

/** Per-batch outcome and accounting. */
struct BatchStats
{
    double loss = 0.0;              //!< Mean loss over the batch's views.
    double h2d_bytes = 0.0;         //!< CPU->GPU traffic this batch.
    double d2h_bytes = 0.0;         //!< GPU->CPU traffic this batch.
    size_t gaussians_rendered = 0;  //!< Sum of |S_i| over the batch.
    size_t adam_updated = 0;        //!< Gaussians whose Adam step ran.
    size_t cache_hits = 0;          //!< PCIe loads avoided (CLM).
};

/** Abstract training system over a fixed set of posed views. */
class Trainer
{
  public:
    /**
     * @param model Initial scene representation (copied).
     * @param cameras Training views.
     * @param ground_truth One image per camera.
     */
    Trainer(GaussianModel model, std::vector<Camera> cameras,
            std::vector<Image> ground_truth, TrainConfig config);

    virtual ~Trainer() = default;

    /** Run one batch over the given view indices. */
    virtual BatchStats trainBatch(const std::vector<int> &view_ids) = 0;

    /** Run @p steps batches of randomly sampled views. */
    std::vector<BatchStats> trainSteps(int steps);

    /** Mean PSNR of the current model over all training views. */
    double evaluatePsnr() const;

    /** Current model (the trainer's source of truth). */
    virtual const GaussianModel &model() const { return model_; }

    /** @name Adaptive density control (§2.1)
     * Enable observation, then call densifyNow() periodically; trainers
     * rebuild their internal (offloaded) state after topology changes.
     */
    /// @{
    void enableDensification(DensifyConfig config = {});
    bool densificationEnabled() const { return densify_enabled_; }
    virtual DensifyStats densifyNow();
    /// @}

    const TrainConfig &config() const { return config_; }
    size_t viewCount() const { return cameras_.size(); }
    const Camera &camera(size_t i) const { return cameras_[i]; }
    const Image &groundTruth(size_t i) const { return ground_truth_[i]; }

    /** SH degree active for the next batch (ramp-up, standard 3DGS
     *  practice when sh_degree_interval > 0). */
    int activeShDegree() const;

    /** Number of completed training batches. */
    int batchesDone() const { return batches_done_; }

    /** @name Train-time model snapshots (serving hand-off)
     * With a sink installed, the trainer publishes an immutable copy of
     * the model into it at every step boundary — once immediately, then
     * after every trainSteps() batch and after densifyNow() — so a
     * RenderService can serve the live model concurrently without ever
     * observing torn parameters. @p slot must outlive the trainer
     * (nullptr detaches).
     */
    /// @{
    void setSnapshotSink(SnapshotSlot *slot);

    /** Also carve every published snapshot into spatial shards
     *  (shard/sharded_snapshot.hpp), at the same publish points as the
     *  plain sink — the slot re-partitions only when the published
     *  version actually changed. Requires a snapshot sink to be
     *  installed first; @p slot must outlive the trainer (nullptr
     *  detaches). */
    void setShardedSink(ShardedSnapshotSlot *slot);

    /** Publish the current model now (no-op without a sink). */
    void publishSnapshot();
    /// @}

  protected:
    /** Called by trainers at the start of every batch. */
    void noteBatchStart() { ++batches_done_; }

    /** Render settings with the ramped SH degree applied. */
    RenderConfig activeRenderConfig() const;

    /** Render view @p v from @p m (restricted to @p subset), compute the
     *  loss gradient and backpropagate into @p grads. @return the loss. */
    double renderAndBackprop(const GaussianModel &m, int v,
                             const std::vector<uint32_t> &subset,
                             GaussianGrads &grads);

    /** Called by trainers after a batch to feed densify statistics. */
    void observeDensify(const GaussianGrads &grads);

    /** Rebuild trainer-local buffers after the model was restructured. */
    virtual void onModelResized() {}

    GaussianModel model_;
    std::vector<Camera> cameras_;
    std::vector<Image> ground_truth_;
    TrainConfig config_;
    CpuAdam adam_;
    Rng rng_;
    Densifier densifier_;
    bool densify_enabled_ = false;
    int batches_done_ = 0;
    SnapshotSlot *snapshot_sink_ = nullptr;    //!< Non-owning.
    /** Rows changed since the last publish (publishSnapshot scratch). */
    std::vector<uint32_t> publish_rows_;
    ShardedSnapshotSlot *sharded_sink_ = nullptr;    //!< Non-owning.

    /** Render scratch reused across every view/step this trainer runs
     *  (every trainer renders through renderAndBackprop/evaluatePsnr).
     *  mutable: purely scratch — reuse never changes results. */
    mutable RenderArena arena_;

    /** SAT-loss scratch reused across renderAndBackprop calls (same
     *  scratch-only contract as arena_). */
    LossScratch loss_scratch_;
};

/**
 * GPU-only training (the paper's "baseline" and "enhanced baseline" —
 * functionally identical; the enhanced flag only changes the modeled
 * kernel input size, which the performance simulator accounts for).
 */
class GpuOnlyTrainer : public Trainer
{
  public:
    GpuOnlyTrainer(GaussianModel model, std::vector<Camera> cameras,
                   std::vector<Image> ground_truth, TrainConfig config);

    BatchStats trainBatch(const std::vector<int> &view_ids) override;

  protected:
    void onModelResized() override { grads_.resize(model_.size()); }

    GaussianGrads grads_;

    /** Fused-batch scratch (TrainConfig::fused_batch): batch arenas +
     *  per-view loss gradients, reused across steps. */
    BatchRenderArena batch_arena_;
    std::vector<Image> d_images_;
};

/** Factory helpers for the quality harness and examples. */
std::unique_ptr<Trainer> makeTrainer(SystemKind system, GaussianModel model,
                                     std::vector<Camera> cameras,
                                     std::vector<Image> ground_truth,
                                     TrainConfig config);

} // namespace clm

#endif // CLM_TRAIN_TRAINER_HPP
