#include "train/trainer_context.hpp"

#include <cstring>
#include <limits>

#include "obs/trace.hpp"
#include "render/culling.hpp"
#include "util/logging.hpp"

namespace clm {

TrainerContext::TrainerContext(GaussianModel &model, CpuAdam &adam,
                               Densifier &densifier)
    : model_(model), adam_(adam), densifier_(densifier)
{
    rebuild();
}

void
TrainerContext::rebuild()
{
    // Attribute-wise offload (§4.1): non-critical attributes live in the
    // engine's pinned pool; critical attributes are resident here.
    size_t n = model_.size();
    critical_.assign(n * kCriticalDim, 0.0f);
    scratch_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        model_.packCritical(i, &critical_[i * kCriticalDim]);
        // The scratch render model shares the critical attributes; its
        // non-critical rows are only valid while materialized.
        scratch_.unpackCritical(i, &critical_[i * kCriticalDim]);
    }
    scratch_grads_.resize(n);
    cpu_grads_.resize(n);
}

std::vector<uint32_t>
TrainerContext::cullView(const Camera &camera) const
{
    ScopedSpan span("render.cull");
    return frustumCullPacked(critical_.data(), model_.size(), camera);
}

BatchWorkload
TrainerContext::buildWorkload(const std::vector<Camera> &cameras,
                              const std::vector<int> &view_ids) const
{
    CLM_ASSERT(!view_ids.empty(), "empty batch");
    BatchWorkload wl;
    wl.sets.reserve(view_ids.size());
    wl.camera_centers.reserve(view_ids.size());
    for (int v : view_ids) {
        wl.sets.push_back(cullView(cameras[v]));
        wl.camera_centers.push_back(cameras[v].eye());
    }
    wl.n_synthetic = model_.size();
    wl.n_target = static_cast<double>(model_.size());
    wl.pixels_per_view = cameras[view_ids[0]].pixels();
    return wl;
}

const BatchPlanResult &
TrainerContext::planViews(const PlannerConfig &config,
                          const BatchWorkload &workload)
{
    last_plan_ = planBatch(config, workload);
    return last_plan_;
}

std::vector<std::vector<uint32_t>>
TrainerContext::orderedSets(const BatchWorkload &workload) const
{
    std::vector<std::vector<uint32_t>> ordered;
    ordered.reserve(last_plan_.order.size());
    for (int o : last_plan_.order)
        ordered.push_back(workload.sets[o]);
    return ordered;
}

void
TrainerContext::materialize(const DeviceBuffer &buf)
{
    const std::vector<uint32_t> &set = buf.indices();
    for (size_t r = 0; r < set.size(); ++r)
        scratch_.unpackNonCritical(set[r], buf.paramRow(r));
}

void
TrainerContext::writeBackCritical(const std::vector<uint32_t> &indices)
{
    for (uint32_t g : indices) {
        model_.packCritical(g, &critical_[size_t(g) * kCriticalDim]);
        scratch_.unpackCritical(g, &critical_[size_t(g) * kCriticalDim]);
    }
}

size_t
TrainerContext::finalize(PinnedPool &pool,
                         const std::vector<uint32_t> &fin,
                         bool observe_densify)
{
    if (fin.empty())
        return 0;
    // Gradients for the finalized set are complete in pinned memory;
    // stage them and run subset Adam on the master copy (§4.2.2, §5.4).
    for (uint32_t g : fin)
        unpackGradRecord(pool.gradRecord(g), cpu_grads_, g);
    if (observe_densify)
        for (uint32_t g : fin)
            densifier_.observeNorm(g, cpu_grads_.positionGradNorm(g));
    adam_.updateSubset(model_, cpu_grads_, fin);

    // Updated non-critical parameters become visible to future loads;
    // gradient records reset for the next batch.
    for (uint32_t g : fin) {
        model_.packNonCritical(g, pool.paramRecord(g));
        std::memset(pool.gradRecord(g), 0,
                    kParamsPerGaussian * sizeof(float));
    }
    // Updated critical attributes flow back to the GPU store (§4.1).
    writeBackCritical(fin);
    return fin.size();
}

void
TrainerContext::debugPoisonScratchNonCritical()
{
    float poison[kNonCriticalDim];
    for (int k = 0; k < kNonCriticalDim; ++k)
        poison[k] = std::numeric_limits<float>::quiet_NaN();
    for (size_t i = 0; i < scratch_.size(); ++i)
        scratch_.unpackNonCritical(i, poison);
}

} // namespace clm
