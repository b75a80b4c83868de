/**
 * @file
 * Composed-pipeline tests: sharded rendering × fused multi-view
 * batching (shard/shard_batch.hpp) and the fused multi-view backward
 * (renderBackwardBatch). The tentpole contracts:
 *
 *  - renderForwardBatchSharded() is bitwise identical, per view, to
 *    sequential unsharded renderForward() — for K in {1, 2, 4, 8}, under
 *    the dispatched and the scalar kernel tables, under arena reuse, and
 *    across routing edge cases (disjoint frusta, single-view batches,
 *    empty-route members, a routed shard whose exact cull keeps
 *    nothing).
 *  - The (snapshot version, shard id) cull-stage cache is invalidated
 *    by a republish and bitwise neutral on a hit.
 *  - renderBackwardBatch() accumulates gradients bitwise identical to
 *    the sequential per-view renderBackward loop — batched ==
 *    sequential, parallel == serial, retained == re-staged staging,
 *    under the dispatched and forced-scalar kernel tables —
 *    and the fused GpuOnlyTrainer step reproduces the view-at-a-time
 *    parameter trajectory exactly.
 *  - The sharded RenderService coalesces batches through the composed
 *    pipeline and reports batch-composition stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <vector>

#include "core/clm.hpp"
#include "render/batch.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "shard/router.hpp"
#include "shard/shard_batch.hpp"
#include "shard/shard_renderer.hpp"
#include "shard/sharded_snapshot.hpp"
#include "train/quality_harness.hpp"
#include "train/trainer.hpp"

namespace clm {
namespace {

/** Bitwise comparison of two forward-pass outputs (same contract as
 *  tests/test_shard.cpp asserts for the sharded renderer). */
void
expectOutputsIdentical(const RenderOutput &a, const RenderOutput &b)
{
    ASSERT_EQ(a.image.width(), b.image.width());
    ASSERT_EQ(a.image.height(), b.image.height());
    EXPECT_EQ(a.image.data(), b.image.data());
    EXPECT_EQ(a.final_t, b.final_t);
    EXPECT_EQ(a.n_contrib, b.n_contrib);
    EXPECT_EQ(a.isect_vals, b.isect_vals);
    ASSERT_EQ(a.tile_ranges.size(), b.tile_ranges.size());
    for (size_t t = 0; t < a.tile_ranges.size(); ++t) {
        EXPECT_EQ(a.tile_ranges[t].begin, b.tile_ranges[t].begin);
        EXPECT_EQ(a.tile_ranges[t].end, b.tile_ranges[t].end);
    }
}

/** Bitwise comparison of full-model gradient buffers. */
void
expectGradsIdentical(const GaussianGrads &a, const GaussianGrads &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.d_sh, b.d_sh);
    EXPECT_EQ(a.d_opacity, b.d_opacity);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.d_position[i].x, b.d_position[i].x) << i;
        EXPECT_EQ(a.d_position[i].y, b.d_position[i].y) << i;
        EXPECT_EQ(a.d_position[i].z, b.d_position[i].z) << i;
        EXPECT_EQ(a.d_log_scale[i].x, b.d_log_scale[i].x) << i;
        EXPECT_EQ(a.d_log_scale[i].y, b.d_log_scale[i].y) << i;
        EXPECT_EQ(a.d_log_scale[i].z, b.d_log_scale[i].z) << i;
        EXPECT_EQ(a.d_rotation[i].w, b.d_rotation[i].w) << i;
        EXPECT_EQ(a.d_rotation[i].x, b.d_rotation[i].x) << i;
        EXPECT_EQ(a.d_rotation[i].y, b.d_rotation[i].y) << i;
        EXPECT_EQ(a.d_rotation[i].z, b.d_rotation[i].z) << i;
    }
}

struct ComposeFixture
{
    GaussianModel model;
    std::vector<Camera> cameras;

    explicit ComposeFixture(const char *scene = "Bicycle",
                            size_t n_gaussians = 1500, int width = 96,
                            int height = 61)
    {
        SceneSpec spec = SceneSpec::byName(scene);
        model = generateSceneGaussians(spec, n_gaussians);
        cameras = generateCameraPath(spec, 6, width, height);
    }

    std::shared_ptr<const ShardedSnapshot>
    sharded(int shards, uint64_t version = 1) const
    {
        auto base = std::make_shared<ModelSnapshot>();
        base->model = model;
        base->version = version;
        base->param_hash = hashModelParams(model);
        return buildShardedSnapshot(base, shards);
    }
};

/** A camera looking straight away from every scene generator's
 *  content (mirrors the empty-subset camera of test_shard.cpp). */
Camera
lookAwayCamera(int width = 96, int height = 61)
{
    return Camera::lookAt(Vec3{40, 0, 2}, Vec3{80, 0, 2}, Vec3{0, 0, 1},
                          width, height, 0.9f, 0.05f, 11.0f);
}

void
checkComposedAgainstUnsharded(const ComposeFixture &fix,
                              const RenderConfig &cfg,
                              std::initializer_list<int> shard_counts)
{
    for (int k : shard_counts) {
        auto snap = fix.sharded(k);
        ShardRouter router(*snap);
        ShardBatchRenderArena arena;
        renderForwardBatchSharded(*snap, router, fix.cameras, cfg, arena,
                                  snap->base->version);
        ASSERT_EQ(arena.views.size(), fix.cameras.size());
        for (size_t v = 0; v < fix.cameras.size(); ++v) {
            SCOPED_TRACE("k=" + std::to_string(k) + " view "
                         + std::to_string(v));
            RenderOutput ref =
                renderForward(fix.model, fix.cameras[v],
                              frustumCull(fix.model, fix.cameras[v]),
                              cfg);
            expectOutputsIdentical(arena.views[v].out, ref);
        }
    }
}

TEST(ComposedForward, BitwiseIdenticalToUnshardedSimd)
{
    ComposeFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    checkComposedAgainstUnsharded(fix, cfg, {1, 2, 4, 8});
}

TEST(ComposedForward, BitwiseIdenticalToUnshardedScalar)
{
    ComposeFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    // The scalar reference kernel table.
    cfg.kernels = renderKernelsFor(SimdBackend::kScalar);
    checkComposedAgainstUnsharded(fix, cfg, {1, 2, 4, 8});
}

TEST(ComposedForward, SingleViewBatchMatchesViewAtATimeRouting)
{
    // A batch of one view must route exactly like the view-at-a-time
    // serving path and produce the same frame.
    ComposeFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    auto snap = fix.sharded(4);
    ShardRouter router(*snap);
    ShardBatchRenderArena arena;
    ShardRenderArena single;
    for (const Camera &cam : fix.cameras) {
        std::vector<Camera> batch{cam};
        renderForwardBatchSharded(*snap, router, batch, cfg, arena,
                                  snap->base->version);
        router.route(cam.frustum(), single.route);
        ASSERT_EQ(arena.routes.size(), 1u);
        EXPECT_EQ(arena.routes[0], single.route);
        EXPECT_EQ(arena.union_shards, single.route);
        renderForwardSharded(*snap, single.route, cam, cfg, single);
        expectOutputsIdentical(arena.views[0].out, single.out);
    }
}

TEST(ComposedForward, DisjointFrustaUnionRouting)
{
    // Two clusters far apart; each camera sees exactly one of them, so
    // the per-view selections are disjoint and the batch union must be
    // exactly their concatenation — and each frame must still match
    // the sequential unsharded render.
    GaussianModel model;
    float sh[kShDim] = {};
    sh[0] = 1.0f;
    for (int i = 0; i < 40; ++i) {
        const float o = 0.05f * i;
        model.append(Vec3{30.0f + o, o - 1.0f, 0.0f},
                     Vec3{-1.5f, -1.5f, -1.5f}, Quat{1, 0, 0, 0}, sh,
                     0.5f);
        model.append(Vec3{-30.0f - o, 1.0f - o, 0.0f},
                     Vec3{-1.5f, -1.5f, -1.5f}, Quat{1, 0, 0, 0}, sh,
                     0.5f);
    }
    Camera cam_a = Camera::lookAt(Vec3{0, 0, 0}, Vec3{30, 0, 0},
                                  Vec3{0, 0, 1}, 64, 48, 0.8f, 0.05f,
                                  60.0f);
    Camera cam_b = Camera::lookAt(Vec3{0, 0, 0}, Vec3{-30, 0, 0},
                                  Vec3{0, 0, 1}, 64, 48, 0.8f, 0.05f,
                                  60.0f);
    auto base = std::make_shared<ModelSnapshot>();
    base->model = model;
    base->version = 1;
    auto snap = buildShardedSnapshot(base, 4);
    ShardRouter router(*snap);

    std::vector<uint32_t> route_a, route_b;
    router.route(cam_a.frustum(), route_a);
    router.route(cam_b.frustum(), route_b);
    ASSERT_FALSE(route_a.empty());
    ASSERT_FALSE(route_b.empty());
    for (uint32_t s : route_a)
        EXPECT_TRUE(std::find(route_b.begin(), route_b.end(), s)
                    == route_b.end())
            << "shard " << s << " selected by both disjoint frusta";

    RenderConfig cfg;
    cfg.sh_degree = 0;
    ShardBatchRenderArena arena;
    std::vector<Camera> batch{cam_a, cam_b};
    renderForwardBatchSharded(*snap, router, batch, cfg, arena, 1);
    EXPECT_EQ(arena.routes[0], route_a);
    EXPECT_EQ(arena.routes[1], route_b);
    std::vector<uint32_t> expected_union = route_a;
    expected_union.insert(expected_union.end(), route_b.begin(),
                          route_b.end());
    std::sort(expected_union.begin(), expected_union.end());
    EXPECT_EQ(arena.union_shards, expected_union);
    for (size_t v = 0; v < batch.size(); ++v) {
        RenderOutput ref = renderForward(
            model, batch[v], frustumCull(model, batch[v]), cfg);
        expectOutputsIdentical(arena.views[v].out, ref);
    }
}

TEST(ComposedForward, EmptyRouteMemberRendersBackground)
{
    // A batch member whose frustum selects zero shards must come back
    // as pure background without disturbing the other members.
    ComposeFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    cfg.background = {0.25f, 0.5f, 0.75f};
    auto snap = fix.sharded(4);
    ShardRouter router(*snap);
    const Camera away = lookAwayCamera();
    std::vector<uint32_t> away_route;
    router.route(away.frustum(), away_route);
    ASSERT_TRUE(away_route.empty());

    std::vector<Camera> batch{fix.cameras[0], away, fix.cameras[1]};
    ShardBatchRenderArena arena;
    renderForwardBatchSharded(*snap, router, batch, cfg, arena, 1);
    EXPECT_TRUE(arena.routes[1].empty());
    for (size_t v = 0; v < batch.size(); ++v) {
        RenderOutput ref = renderForward(
            fix.model, batch[v], frustumCull(fix.model, batch[v]), cfg);
        expectOutputsIdentical(arena.views[v].out, ref);
    }
    const Vec3 px = arena.views[1].out.image.pixel(0, 0);
    EXPECT_EQ(px.x, 0.25f);
    EXPECT_EQ(px.y, 0.5f);
    EXPECT_EQ(px.z, 0.75f);
}

TEST(ComposedForward, RoutedShardWithNoCullSurvivorsIsExact)
{
    // Routing is conservative per shard AABB, the cull is exact per
    // Gaussian: a shard whose members straddle BOTH side planes (half
    // far left of the frustum, half far right) is selected — its AABB
    // spans the frustum — yet every member fails the exact cull. The
    // composed pass must render through that empty contribution
    // bitwise-identically.
    GaussianModel model;
    float sh[kShDim] = {};
    sh[0] = 1.0f;
    // Visible cluster V: x in [5, 10], centered on the axis.
    for (int i = 0; i < 50; ++i)
        model.append(Vec3{5.0f + 0.1f * i, 0.01f * i - 0.25f, 0.0f},
                     Vec3{-2.0f, -2.0f, -2.0f}, Quat{1, 0, 0, 0}, sh,
                     0.5f);
    // Wing cluster W at x = 30, y = +/-9: outside the side planes of a
    // 0.4 rad frustum (half-width at x=30 is at most ~8.1 whichever
    // axis the fov parameter binds, cull radius ~0.4), but W's AABB
    // spans y in [-9.2, 9.2] across the frustum interior, so its shard
    // stays routed. W's y extent (18.5) stays below the model's x
    // extent (25.2) so the K=2 median split separates V from W on x.
    for (int i = 0; i < 25; ++i) {
        model.append(Vec3{30.0f + 0.01f * i, -9.0f - 0.01f * i, 0.0f},
                     Vec3{-2.0f, -2.0f, -2.0f}, Quat{1, 0, 0, 0}, sh,
                     0.5f);
        model.append(Vec3{30.0f + 0.01f * i, 9.0f + 0.01f * i, 0.0f},
                     Vec3{-2.0f, -2.0f, -2.0f}, Quat{1, 0, 0, 0}, sh,
                     0.5f);
    }
    const Camera cam =
        Camera::lookAt(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 0, 1}, 64,
                       48, 0.4f, 0.05f, 60.0f);
    auto base = std::make_shared<ModelSnapshot>();
    base->model = model;
    base->version = 1;
    // K=2 splits on x (the dominant extent): shard {V}, shard {W}.
    auto snap = buildShardedSnapshot(base, 2);
    ShardRouter router(*snap);
    std::vector<uint32_t> route;
    router.route(cam.frustum(), route);

    // Verify the construction: some routed shard has in-frustum AABB
    // but zero exact-cull survivors.
    bool found_empty_after_cull = false;
    for (uint32_t s : route)
        if (frustumCull(snap->shards[s].model, cam).empty())
            found_empty_after_cull = true;
    ASSERT_TRUE(found_empty_after_cull)
        << "construction failed to produce a routed-but-culled shard";

    RenderConfig cfg;
    cfg.sh_degree = 0;
    std::vector<Camera> batch{cam, cam};
    ShardBatchRenderArena arena;
    renderForwardBatchSharded(*snap, router, batch, cfg, arena, 1);
    RenderOutput ref =
        renderForward(model, cam, frustumCull(model, cam), cfg);
    expectOutputsIdentical(arena.views[0].out, ref);
    expectOutputsIdentical(arena.views[1].out, ref);
}

TEST(ComposedForward, CullCacheInvalidatesOnRepublish)
{
    // Satellite: the (snapshot version, shard id) cull-stage cache.
    // Serving version 1 twice through one arena must hit the cache
    // (tags stick, output bitwise unchanged); republishing a mutated
    // model as version 2 must rebuild — frames must track the NEW
    // model, not the cached stage.
    ComposeFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    auto snap1 = fix.sharded(4, /*version=*/1);
    ShardRouter router1(*snap1);
    std::vector<Camera> batch{fix.cameras[0], fix.cameras[1]};

    ShardBatchRenderArena arena;
    renderForwardBatchSharded(*snap1, router1, batch, cfg, arena, 1);
    for (uint32_t s : arena.union_shards) {
        EXPECT_EQ(arena.shards[s].cull.cached_key,
                  shardCullCacheKey(1, s));
        EXPECT_EQ(arena.shards[s].cull.cached_size,
                  snap1->shards[s].model.size());
    }
    Image first = arena.views[0].out.image;
    renderForwardBatchSharded(*snap1, router1, batch, cfg, arena, 1);
    EXPECT_EQ(arena.views[0].out.image.data(), first.data());

    // Republish: grow every Gaussian so cull membership shifts.
    for (size_t i = 0; i < fix.model.size(); ++i)
        fix.model.position(i).x += 0.5f;
    auto snap2 = fix.sharded(4, /*version=*/2);
    ShardRouter router2(*snap2);
    renderForwardBatchSharded(*snap2, router2, batch, cfg, arena, 2);
    for (uint32_t s : arena.union_shards)
        EXPECT_EQ(arena.shards[s].cull.cached_key,
                  shardCullCacheKey(2, s));
    for (size_t v = 0; v < batch.size(); ++v) {
        RenderOutput ref = renderForward(
            fix.model, batch[v], frustumCull(fix.model, batch[v]), cfg);
        expectOutputsIdentical(arena.views[v].out, ref);
    }
}

TEST(ComposedForward, ArenaReuseIsBitwiseNeutral)
{
    ComposeFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    auto snap8 = fix.sharded(8);
    auto snap2 = fix.sharded(2);
    ShardRouter router8(*snap8);
    ShardRouter router2(*snap2);
    ShardBatchRenderArena reused;
    // Dirty every scratch buffer with a larger fan-out + batch first.
    renderForwardBatchSharded(*snap8, router8, fix.cameras, cfg, reused,
                              1);
    std::vector<Camera> batch{fix.cameras[1], fix.cameras[2]};
    renderForwardBatchSharded(*snap2, router2, batch, cfg, reused, 1);
    ShardBatchRenderArena fresh;
    renderForwardBatchSharded(*snap2, router2, batch, cfg, fresh, 1);
    for (size_t v = 0; v < batch.size(); ++v)
        expectOutputsIdentical(reused.views[v].out, fresh.views[v].out);
}

/** Sequential reference: per-view forward + backward accumulating into
 *  one gradient buffer, exactly as GpuOnlyTrainer's view-at-a-time
 *  loop does. */
GaussianGrads
sequentialBackward(const GaussianModel &model,
                   const std::vector<Camera> &cams,
                   const std::vector<Image> &d_images,
                   const RenderConfig &cfg)
{
    GaussianGrads grads;
    grads.resize(model.size());
    RenderArena arena;
    for (size_t v = 0; v < cams.size(); ++v) {
        auto subset = frustumCull(model, cams[v]);
        const RenderOutput &out =
            renderForward(model, cams[v], subset, cfg, arena);
        renderBackward(model, cams[v], cfg, out, d_images[v], grads,
                       arena);
    }
    return grads;
}

GaussianGrads
fusedBackward(const GaussianModel &model,
              const std::vector<Camera> &cams,
              const std::vector<Image> &d_images, const RenderConfig &cfg,
              bool retain_staging, BatchRenderArena *reuse = nullptr)
{
    GaussianGrads grads;
    grads.resize(model.size());
    BatchRenderArena local;
    BatchRenderArena &arena = reuse != nullptr ? *reuse : local;
    arena.retain_staging = retain_staging;
    std::vector<std::vector<uint32_t>> subsets;
    frustumCullBatch(model, cams, arena.cull, subsets, cfg.parallel);
    renderForwardBatch(model, cams, subsets, cfg, arena);
    renderBackwardBatch(model, cams, cfg, d_images, grads, arena);
    return grads;
}

struct BackwardFixture
{
    GaussianModel model;
    std::vector<Camera> cams;
    std::vector<Image> d_images;

    explicit BackwardFixture(int n_views = 4)
    {
        SceneSpec spec = SceneSpec::byName("Rubble");
        model = generateSceneGaussians(spec, 900);
        cams = generateCameraPath(spec, n_views, 96, 61);
        // Distinct synthetic loss gradients per view (sign flips mixed
        // in so negative-gradient paths are exercised).
        for (int v = 0; v < n_views; ++v)
            d_images.emplace_back(96, 61,
                                  Vec3{0.3f - 0.1f * v, -0.2f + 0.07f * v,
                                       0.05f * (v + 1)});
    }
};

TEST(FusedBackward, BatchedBitwiseEqualsSequential)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    GaussianGrads ref =
        sequentialBackward(fix.model, fix.cams, fix.d_images, cfg);
    // Retained staging (the training configuration)...
    GaussianGrads fused =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    expectGradsIdentical(fused, ref);
    // ...and the re-staging fallback must agree too.
    GaussianGrads restaged =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, false);
    expectGradsIdentical(restaged, ref);
}

TEST(FusedBackward, ParallelMatchesSerial)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    cfg.parallel = true;
    GaussianGrads par =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    cfg.parallel = false;
    GaussianGrads ser =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    expectGradsIdentical(par, ser);
    expectGradsIdentical(
        par, sequentialBackward(fix.model, fix.cams, fix.d_images, cfg));
}

TEST(FusedBackward, BitwiseAcrossKernelTables)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    GaussianGrads ref =
        sequentialBackward(fix.model, fix.cams, fix.d_images, cfg);

    // Forced scalar kernel TABLE: the same grad8 replay one lane at a
    // time — bitwise identical to whatever table the CPU dispatched
    // (the PR-6 dispatch-invariance property), fused or sequential.
    const RenderKernels *scalar_kern =
        renderKernelsFor(SimdBackend::kScalar);
    ASSERT_NE(scalar_kern, nullptr);
    RenderConfig forced = cfg;
    forced.kernels = scalar_kern;
    expectGradsIdentical(
        fusedBackward(fix.model, fix.cams, fix.d_images, forced, true),
        sequentialBackward(fix.model, fix.cams, fix.d_images, forced));
    expectGradsIdentical(
        fusedBackward(fix.model, fix.cams, fix.d_images, forced, true),
        ref);
}

TEST(FusedBackward, ArenaReuseIsBitwiseNeutral)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    BackwardFixture small(2);
    BatchRenderArena reused;
    // Dirty the arena with a different batch shape first.
    fusedBackward(small.model, small.cams, small.d_images, cfg, true,
                  &reused);
    GaussianGrads a = fusedBackward(fix.model, fix.cams, fix.d_images,
                                    cfg, true, &reused);
    GaussianGrads b =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    expectGradsIdentical(a, b);
}

TEST(FusedTrainer, TrajectoryMatchesViewAtATime)
{
    // The fused multi-view training step must reproduce the
    // view-at-a-time GpuOnlyTrainer trajectory bit for bit: same
    // per-batch loss, same parameters after several steps — including
    // a batch with a DUPLICATE view id (the fused chain accumulates
    // per model row in batch-slot order, which is the sequential
    // loop's order).
    SceneSpec spec = SceneSpec::bicycle();
    spec.train = {500, 6, 48, 48};
    GaussianModel gt = generateGroundTruth(spec, 500);
    std::vector<Camera> cameras = trainCameras(spec);
    TrainConfig config;
    config.batch_size = 4;
    config.render.sh_degree = 1;
    config.loss.ssim_window = 5;
    std::vector<Image> gt_images =
        renderGroundTruth(gt, cameras, config.render);
    GaussianModel trainee = makeTrainee(gt, 300, 1234);

    TrainConfig fused_cfg = config;
    fused_cfg.fused_batch = true;
    TrainConfig seq_cfg = config;
    seq_cfg.fused_batch = false;
    GpuOnlyTrainer fused(trainee, cameras, gt_images, fused_cfg);
    GpuOnlyTrainer seq(trainee, cameras, gt_images, seq_cfg);

    const std::vector<std::vector<int>> batches = {
        {0, 1, 2, 3}, {4, 5, 0, 1}, {2, 2, 4, 5}};
    for (const auto &ids : batches) {
        BatchStats a = fused.trainBatch(ids);
        BatchStats b = seq.trainBatch(ids);
        EXPECT_EQ(a.loss, b.loss);
        EXPECT_EQ(a.gaussians_rendered, b.gaussians_rendered);
        EXPECT_EQ(a.adam_updated, b.adam_updated);
    }
    const GaussianModel &ma = fused.model();
    const GaussianModel &mb = seq.model();
    ASSERT_EQ(ma.size(), mb.size());
    for (size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma.position(i).x, mb.position(i).x) << i;
        EXPECT_EQ(ma.position(i).y, mb.position(i).y) << i;
        EXPECT_EQ(ma.position(i).z, mb.position(i).z) << i;
        EXPECT_EQ(ma.logScale(i).x, mb.logScale(i).x) << i;
        EXPECT_EQ(ma.rotation(i).w, mb.rotation(i).w) << i;
        EXPECT_EQ(ma.rawOpacity(i), mb.rawOpacity(i)) << i;
        EXPECT_EQ(ma.sh(i)[0], mb.sh(i)[0]) << i;
    }
}

TEST(ComposedServing, ServesFramesIdenticalAndRecordsBatchStats)
{
    // End to end: the sharded service with coalescing renders through
    // the composed pipeline; frames must equal direct unsharded
    // renders and the batch-composition stats must be populated.
    ComposeFixture fix(/*scene=*/"Bicycle", /*n_gaussians=*/800);
    SnapshotSlot base;
    base.publish(fix.model, 0);
    ShardedSnapshotSlot slot(4);
    slot.publish(base.acquire());

    ServeConfig cfg;
    cfg.workers = 1;    // single worker => batches actually coalesce
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    RenderService service(slot, cfg);

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 12; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    for (int r = 0; r < 12; ++r) {
        RenderResponse resp = futs[r].get();
        ASSERT_TRUE(resp.ok());
        EXPECT_GE(resp.shards_selected, 1);
        EXPECT_LE(resp.shards_selected, 4);
        Image direct =
            renderForward(fix.model, fix.cameras[r % 6],
                          frustumCull(fix.model, fix.cameras[r % 6]),
                          cfg.render)
                .image;
        EXPECT_EQ(resp.image.data(), direct.data()) << "request " << r;
    }
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests, 12u);
    ASSERT_FALSE(stats.batch_occupancy.empty());
    uint64_t hist_requests = 0, hist_batches = 0;
    for (size_t k = 0; k < stats.batch_occupancy.size(); ++k) {
        hist_requests += (k + 1) * stats.batch_occupancy[k];
        hist_batches += stats.batch_occupancy[k];
    }
    EXPECT_EQ(hist_requests, stats.requests);
    EXPECT_EQ(hist_batches, stats.batches);
    EXPECT_GE(stats.mean_batch_shards, 1.0);
    EXPECT_LE(stats.mean_batch_shards, 4.0);
}

} // namespace
} // namespace clm
