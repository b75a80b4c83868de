/**
 * @file
 * Spatial-sharding tests: partitioner invariants (disjoint cover,
 * sphere-containing bounds, determinism, arbitrary K), sharded
 * snapshots (bitwise row copies, rebuild-only-on-version-change),
 * frustum routing (conservative: never prunes a shard holding an
 * in-frustum Gaussian; edge cases: zero shards hit, one-cluster
 * models, empty model, K = 1), and the tentpole exactness property —
 * renderForwardSharded is bitwise identical to unsharded renderForward
 * for shard counts {1, 2, 4, 8}, under the dispatched and the scalar
 * kernel tables, with and without router pruning, under arena reuse — plus
 * the sharded RenderService end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <vector>

#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "shard/partitioner.hpp"
#include "shard/router.hpp"
#include "shard/shard_renderer.hpp"
#include "shard/sharded_snapshot.hpp"
#include "core/clm.hpp"

namespace clm {
namespace {

/** Bitwise comparison of two forward-pass outputs (same helper as
 *  tests/test_serve.cpp — the sharded pipeline asserts the identical
 *  contract). */
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
    EXPECT_EQ(a.tiles_x, b.tiles_x);
    EXPECT_EQ(a.tiles_y, b.tiles_y);
}

struct ShardFixture
{
    GaussianModel model;
    std::vector<Camera> cameras;

    explicit ShardFixture(const char *scene = "Bicycle",
                          size_t n_gaussians = 1500, int width = 96,
                          int height = 61)
    {
        SceneSpec spec = SceneSpec::byName(scene);
        model = generateSceneGaussians(spec, n_gaussians);
        cameras = generateCameraPath(spec, 6, width, height);
    }

    std::shared_ptr<const ShardedSnapshot>
    sharded(int shards) const
    {
        auto base = std::make_shared<ModelSnapshot>();
        base->model = model;
        base->version = 1;
        base->param_hash = hashModelParams(model);
        return buildShardedSnapshot(base, shards);
    }
};

/** A camera looking straight away from every scene generator's
 *  content (mirrors the empty-subset camera of test_serve.cpp). */
Camera
lookAwayCamera(int width = 64, int height = 48)
{
    return Camera::lookAt(Vec3{40, 0, 2}, Vec3{80, 0, 2}, Vec3{0, 0, 1},
                          width, height, 0.9f, 0.05f, 11.0f);
}

TEST(Partitioner, DisjointCoverWithContainingBounds)
{
    ShardFixture fix;
    for (int k : {1, 2, 3, 4, 8}) {
        ShardPartition part = partitionModel(fix.model, k);
        ASSERT_EQ(part.shardCount(), static_cast<size_t>(k));
        std::vector<uint32_t> seen;
        for (const ShardCell &cell : part.cells) {
            EXPECT_TRUE(
                std::is_sorted(cell.members.begin(), cell.members.end()));
            for (uint32_t g : cell.members) {
                seen.push_back(g);
                // Bounds must contain the member's cull sphere.
                const float r = cullBoundingRadius(fix.model, g);
                const Vec3 &p = fix.model.position(g);
                EXPECT_TRUE(cell.bounds.contains(p));
                EXPECT_LE(cell.bounds.lo.x, p.x - r);
                EXPECT_LE(cell.bounds.lo.y, p.y - r);
                EXPECT_LE(cell.bounds.lo.z, p.z - r);
                EXPECT_GE(cell.bounds.hi.x, p.x + r);
                EXPECT_GE(cell.bounds.hi.y, p.y + r);
                EXPECT_GE(cell.bounds.hi.z, p.z + r);
            }
        }
        // Disjoint cover: every Gaussian in exactly one shard.
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen.size(), fix.model.size()) << "k=" << k;
        for (size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], static_cast<uint32_t>(i));
    }
}

TEST(Partitioner, DeterministicAndBalanced)
{
    ShardFixture fix;
    ShardPartition a = partitionModel(fix.model, 4);
    ShardPartition b = partitionModel(fix.model, 4);
    ASSERT_EQ(a.shardCount(), b.shardCount());
    for (size_t s = 0; s < a.shardCount(); ++s) {
        EXPECT_EQ(a.cells[s].members, b.cells[s].members);
        // Median-by-count splits keep shards within 2x of each other
        // for any spatial distribution.
        EXPECT_GE(a.cells[s].members.size(), fix.model.size() / 4 / 2);
    }
}

TEST(Partitioner, MoreShardsThanGaussiansYieldsEmptyCells)
{
    ShardFixture fix;
    GaussianModel tiny;
    tiny.resize(3);
    for (size_t i = 0; i < 3; ++i)
        tiny.position(i) = fix.model.position(i);
    ShardPartition part = partitionModel(tiny, 8);
    ASSERT_EQ(part.shardCount(), 8u);
    size_t members = 0, empty = 0;
    for (const ShardCell &cell : part.cells) {
        members += cell.members.size();
        if (cell.members.empty()) {
            ++empty;
            EXPECT_TRUE(cell.bounds.empty());
        }
    }
    EXPECT_EQ(members, 3u);
    EXPECT_EQ(empty, 5u);
}

TEST(Partitioner, OneSpatialClusterSplitsByCount)
{
    // All Gaussians share one center: K exceeds the occupied spatial
    // cells, yet the count-median split still spreads members and
    // keeps the partition a disjoint cover.
    GaussianModel model(20);
    for (size_t i = 0; i < model.size(); ++i) {
        model.position(i) = Vec3{1.0f, 2.0f, 3.0f};
        model.logScale(i) = Vec3{-2.0f, -2.0f, -2.0f};
        model.rotation(i) = Quat{1, 0, 0, 0};
    }
    ShardPartition part = partitionModel(model, 8);
    size_t members = 0;
    for (const ShardCell &cell : part.cells) {
        members += cell.members.size();
        EXPECT_LE(cell.members.size(), 3u);
    }
    EXPECT_EQ(members, 20u);
}

TEST(Partitioner, NonFiniteRowsStayRoutableAndExact)
{
    // Diverged-training hardening: frustumCull conservatively KEEPS
    // rows with NaN parameters, so the partition comparator must stay
    // a strict weak order and the owning shard must become unprunable
    // (full-range bounds) — otherwise routing would drop a row the
    // exact cull selects and break bitwise identity.
    ShardFixture fix;
    GaussianModel model = fix.model;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    model.position(7).y = nan;                      // NaN center
    model.logScale(11) = Vec3{nan, nan, nan};       // NaN cull radius
    ShardPartition part = partitionModel(model, 4);
    size_t members = 0;
    for (const ShardCell &cell : part.cells) {
        members += cell.members.size();
        const bool has_nonfinite =
            std::binary_search(cell.members.begin(), cell.members.end(),
                               7u)
            || std::binary_search(cell.members.begin(),
                                  cell.members.end(), 11u);
        if (has_nonfinite) {
            EXPECT_EQ(cell.bounds.lo.x,
                      -std::numeric_limits<float>::max());
            EXPECT_EQ(cell.bounds.hi.z,
                      std::numeric_limits<float>::max());
        }
    }
    EXPECT_EQ(members, model.size());

    auto base = std::make_shared<ModelSnapshot>();
    base->model = model;
    base->version = 1;
    auto snap = buildShardedSnapshot(base, 4);
    ShardRouter router(*snap);
    ShardRenderArena arena;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    for (const Camera &cam : fix.cameras) {
        router.route(cam.frustum(), arena.route);
        renderForwardSharded(*snap, arena.route, cam, cfg, arena);
        RenderOutput ref = renderForward(model, cam,
                                         frustumCull(model, cam), cfg);
        expectOutputsIdentical(arena.out, ref);
    }
}

TEST(ShardedSnapshot, CompactModelsAreBitwiseRowCopies)
{
    ShardFixture fix;
    auto snap = fix.sharded(4);
    ASSERT_EQ(snap->shardCount(), 4u);
    EXPECT_EQ(snap->totalGaussians(), fix.model.size());
    for (const ModelShard &shard : snap->shards) {
        ASSERT_EQ(shard.model.size(), shard.global_indices.size());
        for (size_t i = 0; i < shard.model.size(); ++i) {
            const size_t g = shard.global_indices[i];
            EXPECT_EQ(shard.model.position(i).x, fix.model.position(g).x);
            EXPECT_EQ(shard.model.position(i).y, fix.model.position(g).y);
            EXPECT_EQ(shard.model.position(i).z, fix.model.position(g).z);
            EXPECT_EQ(shard.model.logScale(i).x, fix.model.logScale(g).x);
            EXPECT_EQ(shard.model.rawOpacity(i),
                      fix.model.rawOpacity(g));
            for (int c = 0; c < kShDim; ++c)
                EXPECT_EQ(shard.model.sh(i)[c], fix.model.sh(g)[c]);
        }
    }
}

TEST(ShardedSnapshotSlot, RebuildsOnlyOnVersionChange)
{
    ShardFixture fix(/*scene=*/"Bicycle", /*n_gaussians=*/300);
    SnapshotSlot base;
    ShardedSnapshotSlot slot(4);
    EXPECT_EQ(slot.acquire(), nullptr);
    EXPECT_EQ(slot.version(), 0u);

    base.publish(fix.model, 0);
    slot.publish(base.acquire());
    auto s1 = slot.acquire();
    ASSERT_NE(s1, nullptr);
    EXPECT_EQ(slot.version(), 1u);

    // Same base version: publish must be a no-op (same object).
    slot.publish(base.acquire());
    EXPECT_EQ(slot.acquire().get(), s1.get());

    // New base version: re-partitioned snapshot.
    fix.model.position(0).x += 1.0f;
    base.publish(fix.model, 1);
    slot.publish(base.acquire());
    auto s2 = slot.acquire();
    ASSERT_NE(s2, nullptr);
    EXPECT_NE(s2.get(), s1.get());
    EXPECT_EQ(slot.version(), 2u);
    EXPECT_EQ(s2->base->param_hash, hashModelParams(fix.model));
}

TEST(ShardRouter, NeverPrunesAShardWithInFrustumMembers)
{
    ShardFixture fix;
    for (int k : {1, 2, 4, 8}) {
        auto snap = fix.sharded(k);
        ShardRouter router(*snap);
        std::vector<uint32_t> selected;
        for (const Camera &cam : fix.cameras) {
            router.route(cam.frustum(), selected);
            EXPECT_TRUE(std::is_sorted(selected.begin(), selected.end()));
            // Conservative: any shard whose compact cull is non-empty
            // must have been selected.
            for (size_t s = 0; s < snap->shardCount(); ++s) {
                auto local = frustumCull(snap->shards[s].model, cam);
                if (local.empty())
                    continue;
                EXPECT_TRUE(std::binary_search(selected.begin(),
                                               selected.end(),
                                               static_cast<uint32_t>(s)))
                    << "k=" << k << " shard " << s << " pruned with "
                    << local.size() << " in-frustum members";
            }
        }
    }
}

TEST(ShardRouter, ViewAwayFromSceneSelectsZeroShards)
{
    ShardFixture fix;
    auto snap = fix.sharded(4);
    ShardRouter router(*snap);
    const Camera away = lookAwayCamera();
    ASSERT_TRUE(frustumCull(fix.model, away).empty());
    std::vector<uint32_t> selected;
    router.route(away.frustum(), selected);
    EXPECT_TRUE(selected.empty());
}

TEST(ShardRouter, EmptyModelRoutesNowhere)
{
    GaussianModel empty;
    auto base = std::make_shared<ModelSnapshot>();
    base->model = empty;
    base->version = 1;
    auto snap = buildShardedSnapshot(base, 4);
    ASSERT_EQ(snap->shardCount(), 4u);
    EXPECT_EQ(snap->totalGaussians(), 0u);
    ShardRouter router(*snap);
    std::vector<uint32_t> selected;
    for (const Camera &cam :
         ShardFixture(/*scene=*/"Bicycle", /*n_gaussians=*/1).cameras) {
        router.route(cam.frustum(), selected);
        EXPECT_TRUE(selected.empty());
    }
}

void
checkShardedAgainstUnsharded(const ShardFixture &fix,
                             const RenderConfig &cfg,
                             std::initializer_list<int> shard_counts)
{
    for (int k : shard_counts) {
        auto snap = fix.sharded(k);
        ShardRouter router(*snap);
        ShardRenderArena arena;
        for (size_t v = 0; v < fix.cameras.size(); ++v) {
            const Camera &cam = fix.cameras[v];
            RenderOutput ref = renderForward(
                fix.model, cam, frustumCull(fix.model, cam), cfg);
            // Routed selection (the serving path)...
            std::vector<uint32_t> selected;
            router.route(cam.frustum(), selected);
            renderForwardSharded(*snap, selected, cam, cfg, arena);
            SCOPED_TRACE("k=" + std::to_string(k) + " view "
                         + std::to_string(v));
            expectOutputsIdentical(arena.out, ref);
            // ...and the all-shards overload must agree too.
            ShardRenderArena all_arena;
            renderForwardSharded(*snap, cam, cfg, all_arena);
            expectOutputsIdentical(all_arena.out, ref);
        }
    }
}

TEST(ShardRenderer, BitwiseIdenticalToUnshardedSimd)
{
    ShardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    checkShardedAgainstUnsharded(fix, cfg, {1, 2, 4, 8});
}

TEST(ShardRenderer, BitwiseIdenticalToUnshardedScalar)
{
    ShardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    // The scalar reference kernel table.
    cfg.kernels = renderKernelsFor(SimdBackend::kScalar);
    checkShardedAgainstUnsharded(fix, cfg, {1, 2, 4, 8});
}

TEST(ShardRenderer, BitwiseIdenticalOnAllQualityHarnessScenes)
{
    // The full K sweep on every harness scene topology — aerial
    // (Rubble), indoor (Alameda), street (Ithaca: long drives whose
    // directional frustums prune most shards), city-scale aerial
    // (BigCity) — so a scene-dependent regression on any (scene, K)
    // pair cannot slip past. Bicycle gets the sweep under both kernel
    // tables above.
    for (const char *scene : {"Rubble", "Alameda", "Ithaca", "BigCity"}) {
        SCOPED_TRACE(scene);
        ShardFixture fix(scene, /*n_gaussians=*/1200, /*width=*/80,
                         /*height=*/45);
        RenderConfig cfg;
        cfg.sh_degree = 1;
        checkShardedAgainstUnsharded(fix, cfg, {1, 2, 4, 8});
    }
}

TEST(ShardRenderer, ShardCountOneEquivalentToUnsharded)
{
    // The K=1 fast path: one shard holding the whole model, router
    // selects it (or prunes it for an away view) — output must equal
    // plain renderForward either way.
    ShardFixture fix;
    auto snap = fix.sharded(1);
    ASSERT_EQ(snap->shardCount(), 1u);
    ASSERT_EQ(snap->shards[0].model.size(), fix.model.size());
    RenderConfig cfg;
    cfg.sh_degree = 1;
    ShardRouter router(*snap);
    ShardRenderArena arena;
    std::vector<uint32_t> selected;
    for (const Camera &cam : fix.cameras) {
        router.route(cam.frustum(), selected);
        EXPECT_EQ(selected.size(), 1u);
        renderForwardSharded(*snap, selected, cam, cfg, arena);
        RenderOutput ref = renderForward(fix.model, cam,
                                         frustumCull(fix.model, cam),
                                         cfg);
        expectOutputsIdentical(arena.out, ref);
    }
}

TEST(ShardRenderer, ZeroSelectedShardsRendersBackground)
{
    ShardFixture fix;
    auto snap = fix.sharded(4);
    RenderConfig cfg;
    cfg.background = {0.25f, 0.5f, 0.75f};
    const Camera away = lookAwayCamera();
    ShardRouter router(*snap);
    ShardRenderArena arena;
    router.route(away.frustum(), arena.route);
    ASSERT_TRUE(arena.route.empty());
    renderForwardSharded(*snap, arena.route, away, cfg, arena);
    RenderOutput ref =
        renderForward(fix.model, away, frustumCull(fix.model, away), cfg);
    expectOutputsIdentical(arena.out, ref);
    const Vec3 px = arena.out.image.pixel(0, 0);
    EXPECT_EQ(px.x, 0.25f);
    EXPECT_EQ(px.y, 0.5f);
    EXPECT_EQ(px.z, 0.75f);
}

TEST(ShardRenderer, EmptyModelRendersBackground)
{
    GaussianModel empty;
    auto base = std::make_shared<ModelSnapshot>();
    base->model = empty;
    base->version = 1;
    auto snap = buildShardedSnapshot(base, 4);
    ShardFixture fix(/*scene=*/"Bicycle", /*n_gaussians=*/1);
    RenderConfig cfg;
    ShardRenderArena arena;
    const RenderOutput &out =
        renderForwardSharded(*snap, fix.cameras[0], cfg, arena);
    RenderOutput ref = renderForward(empty, fix.cameras[0], {}, cfg);
    expectOutputsIdentical(out, ref);
}

TEST(ShardRenderer, ArenaReuseIsBitwiseNeutral)
{
    ShardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    auto snap8 = fix.sharded(8);
    auto snap2 = fix.sharded(2);
    ShardRenderArena reused;
    // Dirty every scratch buffer with a larger shard fan-out first.
    renderForwardSharded(*snap8, fix.cameras[0], cfg, reused);
    renderForwardSharded(*snap2, fix.cameras[1], cfg, reused);
    ShardRenderArena fresh;
    renderForwardSharded(*snap2, fix.cameras[1], cfg, fresh);
    expectOutputsIdentical(reused.out, fresh.out);
}

TEST(RenderServiceSharded, ServesFramesIdenticalToDirectRenders)
{
    ShardFixture fix(/*scene=*/"Bicycle", /*n_gaussians=*/800);
    SnapshotSlot base;
    base.publish(fix.model, 0);
    ShardedSnapshotSlot slot(4);
    slot.publish(base.acquire());

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    RenderService service(slot, cfg);

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 12; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    for (int r = 0; r < 12; ++r) {
        RenderResponse resp = futs[r].get();
        EXPECT_EQ(resp.snapshot_version, 1u);
        EXPECT_EQ(resp.shards_total, 4);
        EXPECT_GE(resp.shards_selected, 1);
        EXPECT_LE(resp.shards_selected, 4);
        auto subset = frustumCull(fix.model, fix.cameras[r % 6]);
        Image direct = renderForward(fix.model, fix.cameras[r % 6],
                                     subset, cfg.render)
                           .image;
        EXPECT_EQ(resp.image.data(), direct.data()) << "request " << r;
    }
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests, 12u);
    EXPECT_EQ(stats.sharded_requests, 12u);
    EXPECT_GE(stats.mean_shards_selected, 1.0);
    EXPECT_LE(stats.mean_shards_selected, 4.0);
    EXPECT_GE(stats.mean_shard_frac_pruned, 0.0);
    EXPECT_LE(stats.mean_shard_frac_pruned, 1.0);
}

TEST(RenderServiceSharded, TrainingRepublishesShardedSnapshots)
{
    // Clm::enableSharding wires the trainer's sharded sink: training
    // must advance the sharded slot in lockstep with the plain slot,
    // and served frames must reproduce from the published base model.
    ClmConfig config;
    config.scene = SceneSpec::bicycle();
    config.scene.train = {400, 6, 48, 32};
    config.train.render.sh_degree = 1;
    config.train.loss.ssim_window = 5;
    Clm session(config);
    ShardedSnapshotSlot &slot = session.enableSharding(4);
    EXPECT_EQ(slot.version(), session.snapshots().version());

    session.train(2);
    EXPECT_EQ(slot.version(), session.snapshots().version());
    auto snap = slot.acquire();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->base->param_hash,
              hashModelParams(session.model()));

    ServeConfig cfg;
    cfg.render = config.train.render;
    RenderService service(slot, cfg);
    RenderResponse resp = service.submit(session.camera(0)).get();
    EXPECT_EQ(resp.snapshot_version, snap->base->version);
    Image direct =
        renderForward(session.model(), session.camera(0),
                      frustumCull(session.model(), session.camera(0)),
                      cfg.render)
            .image;
    EXPECT_EQ(resp.image.data(), direct.data());
}

} // namespace
} // namespace clm
