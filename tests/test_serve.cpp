/**
 * @file
 * Serving-subsystem tests: the fused batch cull against per-view
 * frustumCull (exact membership in every build flavor), the fused
 * multi-view forward against sequential renderForward (bitwise, SIMD
 * and scalar configs, mixed resolutions, arena reuse), model snapshots
 * (versioning, hashing, buffer reuse), and the RenderService end to end
 * — including snapshot-swap-under-load: every served frame must be
 * reproducible from exactly the published snapshot it claims, which a
 * torn read could not satisfy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "render/batch.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"

namespace clm {
namespace {

/** Bitwise comparison of two forward-pass outputs. */
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

struct BatchFixture
{
    GaussianModel model;
    std::vector<Camera> cameras;

    explicit BatchFixture(size_t n_gaussians = 1500, int width = 96,
                          int height = 61)
    {
        SceneSpec spec = SceneSpec::bicycle();
        model = generateSceneGaussians(spec, n_gaussians);
        cameras = generateCameraPath(spec, 6, width, height);
    }
};

TEST(FrustumCullBatch, MatchesPerViewCullExactly)
{
    BatchFixture fix;
    for (size_t batch : {size_t(1), size_t(3), size_t(5)}) {
        std::vector<Camera> cams(fix.cameras.begin(),
                                 fix.cameras.begin() + batch);
        BatchCullScratch scratch;
        std::vector<std::vector<uint32_t>> subsets;
        frustumCullBatch(fix.model, cams, scratch, subsets);
        ASSERT_EQ(subsets.size(), batch);
        for (size_t v = 0; v < batch; ++v)
            EXPECT_EQ(subsets[v], frustumCull(fix.model, cams[v]))
                << "batch " << batch << " view " << v;
    }
}

TEST(FrustumCullBatch, SnapshotScopedCullCacheIsBitwiseNeutral)
{
    // Satellite of the sharding PR: passing the same non-zero cache
    // key again must skip the shared SoA rebuild (the stage is a pure
    // function of the model) without changing any membership; a new
    // key over a *changed* model must invalidate and rebuild.
    BatchFixture fix;
    std::vector<Camera> cams(fix.cameras.begin(), fix.cameras.begin() + 3);
    BatchCullScratch cached, fresh;
    std::vector<std::vector<uint32_t>> a, b, c;

    frustumCullBatch(fix.model, cams, cached, a, true, /*cache_key=*/7);
    EXPECT_EQ(cached.cached_key, 7u);
    // Poison detector: a cached second call must not touch the stage
    // (same key + size), and must produce identical subsets.
    const std::vector<float> stage_before = cached.neg_thresh;
    frustumCullBatch(fix.model, cams, cached, b, true, /*cache_key=*/7);
    EXPECT_EQ(cached.neg_thresh, stage_before);
    EXPECT_EQ(a, b);
    for (size_t v = 0; v < cams.size(); ++v)
        EXPECT_EQ(a[v], frustumCull(fix.model, cams[v]));

    // Model changed, key advanced: results must track the new model.
    GaussianModel moved = fix.model;
    for (size_t i = 0; i < moved.size(); ++i)
        moved.position(i).x += 3.0f;
    frustumCullBatch(moved, cams, cached, c, true, /*cache_key=*/8);
    EXPECT_EQ(cached.cached_key, 8u);
    std::vector<std::vector<uint32_t>> ref;
    frustumCullBatch(moved, cams, fresh, ref);
    EXPECT_EQ(c, ref);

    // Key 0 untags: the next keyed call cannot falsely hit.
    frustumCullBatch(fix.model, cams, cached, b, true, /*cache_key=*/0);
    EXPECT_EQ(cached.cached_key, 0u);
    EXPECT_EQ(b, a);
}

TEST(ServeStats, LatencyReservoirSlotsAreDeterministic)
{
    // Satellite: reservoir membership is a pure function of
    // (seed, observation index), so benched p50/p99 are reproducible
    // run-to-run — no shared-RNG draw order involved.
    for (uint64_t seed : {uint64_t(0x5e12e), uint64_t(1), uint64_t(42)}) {
        size_t hits = 0;
        for (uint64_t i = 4097; i < 8192; ++i) {
            const uint64_t j = latencyReservoirSlot(seed, i);
            EXPECT_EQ(j, latencyReservoirSlot(seed, i));    // pure
            EXPECT_LT(j, i);                                // in range
            if (j < 4096)
                ++hits;
        }
        // Algorithm R keeps the sample uniform: the acceptance rate
        // over indices (R, 2R] is ~R * (H(2R) - H(R)) ≈ R ln 2 — allow
        // generous slack, this is a sanity band, not a statistics test.
        EXPECT_GT(hits, 4096 * 0.55);
        EXPECT_LT(hits, 4096 * 0.85);
    }
    // Different seeds sample different index sets (the seed matters).
    size_t differs = 0;
    for (uint64_t i = 4097; i < 4197; ++i)
        if (latencyReservoirSlot(1, i) != latencyReservoirSlot(2, i))
            ++differs;
    EXPECT_GT(differs, 50u);
}

TEST(FrustumCullBatch, SerialAndParallelIdentical)
{
    BatchFixture fix;
    std::vector<Camera> cams(fix.cameras.begin(), fix.cameras.begin() + 4);
    BatchCullScratch s1, s2;
    std::vector<std::vector<uint32_t>> a, b;
    frustumCullBatch(fix.model, cams, s1, a, /*parallel=*/false);
    frustumCullBatch(fix.model, cams, s2, b, /*parallel=*/true);
    EXPECT_EQ(a, b);
}

void
checkBatchAgainstSequential(const BatchFixture &fix,
                            const std::vector<Camera> &cams,
                            const RenderConfig &cfg)
{
    std::vector<std::vector<uint32_t>> subsets(cams.size());
    for (size_t v = 0; v < cams.size(); ++v)
        subsets[v] = frustumCull(fix.model, cams[v]);

    BatchRenderArena batch_arena;
    renderForwardBatch(fix.model, cams, subsets, cfg, batch_arena);

    for (size_t v = 0; v < cams.size(); ++v) {
        RenderOutput seq =
            renderForward(fix.model, cams[v], subsets[v], cfg);
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(batch_arena.views[v].out, seq);
    }
}

TEST(RenderForwardBatch, BitwiseIdenticalToSequentialSimd)
{
    BatchFixture fix;
    std::vector<Camera> cams(fix.cameras.begin(), fix.cameras.begin() + 3);
    RenderConfig cfg;
    cfg.sh_degree = 2;
    cfg.use_simd = true;    // scalar fallback in CLM_DISABLE_SIMD builds
    checkBatchAgainstSequential(fix, cams, cfg);
}

TEST(RenderForwardBatch, BitwiseIdenticalToSequentialScalar)
{
    BatchFixture fix;
    std::vector<Camera> cams(fix.cameras.begin(), fix.cameras.begin() + 3);
    RenderConfig cfg;
    cfg.sh_degree = 2;
    cfg.use_simd = false;    // the scalar reference compositor
    checkBatchAgainstSequential(fix, cams, cfg);
}

TEST(RenderForwardBatch, MixedResolutionsAndEmptySubset)
{
    BatchFixture fix;
    std::vector<Camera> cams;
    cams.push_back(fix.cameras[0]);
    // A different resolution in the same batch (different tile grid).
    cams.push_back(Camera::lookAt(Vec3{6, 0, 2}, Vec3{0, 0, 1},
                                  Vec3{0, 0, 1}, 64, 48, 0.9f, 0.05f,
                                  11.0f));
    // Looking straight away from the scene: empty subset.
    cams.push_back(Camera::lookAt(Vec3{40, 0, 2}, Vec3{80, 0, 2},
                                  Vec3{0, 0, 1}, 48, 32, 0.9f, 0.05f,
                                  11.0f));
    RenderConfig cfg;
    cfg.sh_degree = 1;
    std::vector<std::vector<uint32_t>> subsets(cams.size());
    for (size_t v = 0; v < cams.size(); ++v)
        subsets[v] = frustumCull(fix.model, cams[v]);
    EXPECT_TRUE(subsets[2].empty());

    BatchRenderArena arena;
    renderForwardBatch(fix.model, cams, subsets, cfg, arena);
    for (size_t v = 0; v < cams.size(); ++v) {
        RenderOutput seq =
            renderForward(fix.model, cams[v], subsets[v], cfg);
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(arena.views[v].out, seq);
    }
}

TEST(RenderForwardBatch, AllSubsetsEmptyRendersBackgrounds)
{
    // Regression: a coalesced batch whose every view sees no Gaussians
    // must render plain backgrounds (the flat pair list is empty; the
    // view-probe of each fused pass has nothing to walk).
    BatchFixture fix(200);
    std::vector<Camera> cams;
    for (int v = 0; v < 3; ++v)
        cams.push_back(Camera::lookAt(Vec3{40.0f + v, 0, 2},
                                      Vec3{80, 0, 2}, Vec3{0, 0, 1}, 48,
                                      32, 0.9f, 0.05f, 11.0f));
    RenderConfig cfg;
    cfg.background = {0.25f, 0.5f, 0.75f};
    std::vector<std::vector<uint32_t>> subsets(cams.size());
    for (size_t v = 0; v < cams.size(); ++v) {
        subsets[v] = frustumCull(fix.model, cams[v]);
        ASSERT_TRUE(subsets[v].empty());
    }
    BatchRenderArena arena;
    renderForwardBatch(fix.model, cams, subsets, cfg, arena);
    for (size_t v = 0; v < cams.size(); ++v) {
        RenderOutput seq =
            renderForward(fix.model, cams[v], subsets[v], cfg);
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(arena.views[v].out, seq);
        const Vec3 px = arena.views[v].out.image.pixel(0, 0);
        EXPECT_EQ(px.x, 0.25f);
        EXPECT_EQ(px.y, 0.5f);
        EXPECT_EQ(px.z, 0.75f);
    }
}

TEST(RenderForwardBatch, ArenaReuseIsBitwiseNeutral)
{
    BatchFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    BatchRenderArena reused;
    // Render a larger batch first so every scratch buffer is dirty and
    // over-sized for the second call.
    {
        std::vector<Camera> warm(fix.cameras.begin(),
                                 fix.cameras.begin() + 4);
        std::vector<std::vector<uint32_t>> subsets(4);
        for (size_t v = 0; v < 4; ++v)
            subsets[v] = frustumCull(fix.model, warm[v]);
        renderForwardBatch(fix.model, warm, subsets, cfg, reused);
    }
    std::vector<Camera> cams(fix.cameras.begin() + 4,
                             fix.cameras.begin() + 6);
    std::vector<std::vector<uint32_t>> subsets(2);
    for (size_t v = 0; v < 2; ++v)
        subsets[v] = frustumCull(fix.model, cams[v]);
    renderForwardBatch(fix.model, cams, subsets, cfg, reused);

    BatchRenderArena fresh;
    renderForwardBatch(fix.model, cams, subsets, cfg, fresh);
    for (size_t v = 0; v < 2; ++v) {
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(reused.views[v].out, fresh.views[v].out);
    }
}

TEST(SnapshotSlot, PublishesVersionsAndHashes)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    EXPECT_EQ(slot.version(), 0u);
    EXPECT_EQ(slot.acquire(), nullptr);

    slot.publish(fix.model, 0);
    auto s1 = slot.acquire();
    ASSERT_NE(s1, nullptr);
    EXPECT_EQ(s1->version, 1u);
    EXPECT_EQ(s1->train_step, 0);
    EXPECT_EQ(s1->model.size(), fix.model.size());
    EXPECT_EQ(s1->param_hash, hashModelParams(fix.model));

    // A parameter change must land in a NEW snapshot with a new hash;
    // the acquired one stays frozen.
    const uint64_t old_hash = s1->param_hash;
    fix.model.position(0).x += 1.0f;
    slot.publish(fix.model, 7);
    auto s2 = slot.acquire();
    ASSERT_NE(s2, nullptr);
    EXPECT_EQ(s2->version, 2u);
    EXPECT_EQ(s2->train_step, 7);
    EXPECT_NE(s2->param_hash, old_hash);
    EXPECT_EQ(s1->param_hash, old_hash);
    EXPECT_EQ(s1->version, 1u);
}

TEST(SnapshotSlot, ReusesRetiredBuffersWhenUnreferenced)
{
    BatchFixture fix(200);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);
    slot.publish(fix.model, 1);
    const ModelSnapshot *retired = slot.acquire().get();
    // With no outside readers, the buffer retired by the next publish
    // must be recycled by the one after it (double buffering).
    slot.publish(fix.model, 2);
    slot.publish(fix.model, 3);
    EXPECT_EQ(slot.acquire().get(), retired);
    EXPECT_EQ(slot.acquire()->version, 4u);
}

/** Perturb row @p i in every attribute. */
void
perturbRow(GaussianModel &m, uint32_t i, Rng &rng)
{
    m.position(i).x += rng.normal();
    m.position(i).z += rng.normal();
    m.logScale(i).y += 0.1f * rng.normal();
    m.rotation(i).w += 0.1f * rng.normal();
    m.sh(i)[rng.uniformInt(0, kShDim - 1)] += rng.normal();
    m.rawOpacity(i) += rng.normal();
}

/** @p k distinct random rows of an @p n-row model. */
std::vector<uint32_t>
randomRows(size_t n, size_t k, Rng &rng)
{
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i)
        all[i] = static_cast<uint32_t>(i);
    for (size_t i = 0; i < k; ++i)
        std::swap(all[i], all[i + static_cast<size_t>(rng.uniformInt(
                                      0, static_cast<int64_t>(n - i) - 1))]);
    all.resize(k);
    return all;
}

/**
 * Incremental publishing: only the rows changed since the last publish
 * are passed, yet after every publish the snapshot is bitwise the
 * source model and its hash is the full-model oracle's — across a
 * reader pinning the spare (fresh buffer), size changes, a publish
 * with no changed set, and empty, duplicated and repeated changed sets.
 */
TEST(SnapshotSlot, IncrementalPublishMatchesModelBitwise)
{
    BatchFixture fix(500);
    GaussianModel work = fix.model;
    SnapshotSlot slot;
    Rng rng(77);
    std::shared_ptr<const ModelSnapshot> pinned;
    GaussianModel pinned_model;
    std::vector<const ModelSnapshot *> buffers;
    std::vector<uint32_t> changed;

    for (int step = 0; step < 14; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const size_t k = step == 5 || step == 8
                             ? 0
                             : static_cast<size_t>(rng.uniformInt(1, 60));
        // Steps 12 and 13 change the same rows again, as a training
        // batch over the same views does.
        if (step < 12)
            changed = randomRows(work.size(), k, rng);
        for (uint32_t i : changed)
            perturbRow(work, i, rng);
        if (step == 10)
            changed.push_back(changed.front());    // duplicates allowed
        const std::vector<uint32_t> *arg = step == 0 ? nullptr : &changed;
        if (step == 6) {
            // Size change: the listed rows no longer describe the
            // difference, so the slot must copy and hash everything.
            work.append(work.position(1), work.logScale(1),
                        work.rotation(1), work.sh(1), 0.5f);
            work.removeRows({3, 17});
        } else if (step == 9) {
            perturbRow(work, 0, rng);    // unlisted: no set passed
            arg = nullptr;
        } else if (step == 2) {
            // Pin the current snapshot: it is the spare at step 3's
            // publish, which must then fill a fresh buffer.
            pinned = slot.acquire();
            pinned_model = pinned->model;
        }
        slot.publish(work, step, arg);

        auto snap = slot.acquire();
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->version, static_cast<uint64_t>(step + 1));
        EXPECT_EQ(snap->train_step, step);
        EXPECT_TRUE(snap->model.bitwiseEquals(work));
        EXPECT_EQ(snap->param_hash, hashModelParams(work));
        // Double buffering: every publish but the pinned one refills
        // the buffer retired two publishes earlier.
        buffers.push_back(snap.get());
        if (step >= 2 && step != 3) {
            EXPECT_EQ(snap.get(), buffers[step - 2]);
        }
        if (step == 3 || step == 4) {
            EXPECT_NE(snap.get(), pinned.get());
            // The pinned reader's snapshot is never written to.
            EXPECT_TRUE(pinned->model.bitwiseEquals(pinned_model));
        }
        if (step == 4)
            pinned.reset();
    }
}

/** A change confined to one row changes the hash; the hash is a pure
 *  function of the parameters (equal models hash equal). */
TEST(SnapshotSlot, HashSeesEverySingleRowChange)
{
    BatchFixture fix(64);
    const uint64_t h0 = hashModelParams(fix.model);
    EXPECT_EQ(hashModelParams(GaussianModel(fix.model)), h0);
    Rng rng(5);
    for (uint32_t i = 0; i < fix.model.size(); ++i) {
        GaussianModel m = fix.model;
        perturbRow(m, i, rng);
        EXPECT_NE(hashModelParams(m), h0) << "row " << i;
    }
    // Swapping two rows moves data between index seeds.
    GaussianModel swapped = fix.model;
    std::swap(swapped.position(0), swapped.position(1));
    EXPECT_NE(hashModelParams(swapped), h0);
    // Same rows, different count.
    GaussianModel shorter = fix.model;
    shorter.removeRows({static_cast<uint32_t>(shorter.size() - 1)});
    EXPECT_NE(hashModelParams(shorter), h0);
}

TEST(RenderService, ServesFramesIdenticalToDirectRenders)
{
    BatchFixture fix(800);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

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
        EXPECT_GE(resp.batch_size, 1);
        auto subset = frustumCull(fix.model, fix.cameras[r % 6]);
        Image direct = renderForward(fix.model, fix.cameras[r % 6],
                                     subset, cfg.render)
                           .image;
        EXPECT_EQ(resp.image.data(), direct.data()) << "request " << r;
    }
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests, 12u);
    EXPECT_GE(stats.batches, 3u);    // 12 requests, batches of <= 4
    EXPECT_LE(stats.p50_ms, stats.p99_ms);
    EXPECT_EQ(stats.min_snapshot_version, 1u);
    EXPECT_EQ(stats.max_snapshot_version, 1u);
}

TEST(RenderService, ViewAtATimeModeMatchesFused)
{
    BatchFixture fix(600);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    ServeConfig fused_cfg;
    fused_cfg.max_batch = 4;
    fused_cfg.render.sh_degree = 1;
    ServeConfig single_cfg = fused_cfg;
    single_cfg.fused_batch = false;

    std::vector<Image> fused_frames, single_frames;
    for (const ServeConfig &cfg : {fused_cfg, single_cfg}) {
        RenderService service(slot, cfg);
        std::vector<std::future<RenderResponse>> futs;
        for (int r = 0; r < 8; ++r)
            futs.push_back(service.submit(fix.cameras[r % 6]));
        auto &frames =
            cfg.fused_batch ? fused_frames : single_frames;
        for (auto &f : futs)
            frames.push_back(f.get().image);
    }
    for (size_t r = 0; r < fused_frames.size(); ++r)
        EXPECT_EQ(fused_frames[r].data(), single_frames[r].data())
            << "request " << r;
}

/**
 * Snapshot-swap-under-load: a publisher thread keeps mutating the model
 * and republishing while client threads hammer the service. Every
 * response must be bitwise reproducible from the *published* model copy
 * of the version it claims — a torn or half-published snapshot could
 * not satisfy this for any version. Runs under ASan/UBSan via
 * scripts/verify.sh like every suite.
 */
TEST(RenderService, SnapshotSwapUnderLoadIsRaceFree)
{
    BatchFixture fix(400, 64, 48);
    SnapshotSlot slot;

    // Deterministic model sequence; keep a private copy per version.
    std::map<uint64_t, GaussianModel> published;
    std::map<uint64_t, uint64_t> published_hash;
    GaussianModel work = fix.model;
    // The publisher passes each step's changed rows, as the trainer
    // does, so most publishes copy and rehash only those rows.
    bool all_published_exact = true;
    auto publish_next = [&](int step) {
        Rng rng(1000 + step);
        std::vector<uint32_t> changed;
        std::vector<uint8_t> listed(work.size(), 0);
        for (int k = 0; k < 50; ++k) {
            uint32_t i = static_cast<uint32_t>(
                rng.uniformInt(0, static_cast<int64_t>(work.size()) - 1));
            work.position(i).x += 0.01f * static_cast<float>(step % 7);
            work.rawOpacity(i) += 0.01f;
            if (!listed[i]) {
                listed[i] = 1;
                changed.push_back(i);
            }
        }
        slot.publish(work, step, step == 0 ? nullptr : &changed);
        const uint64_t v = slot.version();
        published.emplace(v, work);
        published_hash[v] = hashModelParams(work);
        auto snap = slot.acquire();
        all_published_exact = all_published_exact
                              && snap->model.bitwiseEquals(work)
                              && snap->param_hash == published_hash[v];
    };
    publish_next(0);

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    RenderService service(slot, cfg);

    std::atomic<bool> stop_publishing{false};
    std::thread publisher([&] {
        // Capped + throttled: each publish stores a full model copy for
        // later verification, so keep the version count bounded.
        for (int step = 1; step <= 300 && !stop_publishing.load();
             ++step) {
            publish_next(step);
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    });

    constexpr int kClients = 3;
    constexpr int kPerClient = 20;
    std::vector<RenderResponse> responses(kClients * kPerClient);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kPerClient; ++r) {
                const Camera &cam = fix.cameras[(c + r) % 6];
                responses[c * kPerClient + r] =
                    service.submit(cam).get();
            }
        });
    }
    for (auto &t : clients)
        t.join();
    stop_publishing = true;
    publisher.join();
    service.stop();

    EXPECT_TRUE(all_published_exact);

    // Verify every served frame against the recorded publish of its
    // claimed version.
    for (int c = 0; c < kClients; ++c) {
        for (int r = 0; r < kPerClient; ++r) {
            const RenderResponse &resp = responses[c * kPerClient + r];
            auto it = published.find(resp.snapshot_version);
            ASSERT_NE(it, published.end())
                << "served an unpublished version "
                << resp.snapshot_version;
            EXPECT_EQ(resp.snapshot_hash,
                      published_hash[resp.snapshot_version]);
            const Camera &cam = fix.cameras[(c + r) % 6];
            auto subset = frustumCull(it->second, cam);
            Image direct =
                renderForward(it->second, cam, subset, cfg.render).image;
            EXPECT_EQ(resp.image.data(), direct.data())
                << "client " << c << " request " << r << " version "
                << resp.snapshot_version;
        }
    }
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests,
              static_cast<uint64_t>(kClients * kPerClient));
    EXPECT_GE(stats.max_snapshot_version, stats.min_snapshot_version);
}

/**
 * Satellite regression: submit() after stop() must fulfill a
 * RejectedShutdown response — future::get() never throws
 * std::future_error (the old contract silently dropped the promise).
 */
TEST(RenderService, SubmitAfterStopResolvesRejectedShutdown)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    ServeConfig cfg;
    cfg.render.sh_degree = 1;
    RenderService service(slot, cfg);
    RenderResponse ok = service.submit(fix.cameras[0]).get();
    EXPECT_TRUE(ok.ok());
    service.stop();

    for (int i = 0; i < 3; ++i) {
        std::future<RenderResponse> fut = service.submit(fix.cameras[1]);
        ASSERT_TRUE(fut.valid());
        RenderResponse resp;
        EXPECT_NO_THROW(resp = fut.get());    // never std::future_error
        EXPECT_EQ(resp.status, ServeStatus::RejectedShutdown);
        EXPECT_FALSE(resp.ok());
        EXPECT_GT(resp.request_id, 0u);
        EXPECT_STREQ(serveStatusName(resp.status), "rejected_shutdown");
    }
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.rejected_shutdown, 3u);
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.submitted, 4u);
}

TEST(RenderService, DropOldestEvictsStalestAndServesNewest)
{
    BatchFixture fix(400);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    FaultPlan plan;
    plan.at(FaultPoint::WorkerStall).every_n = 1;
    plan.at(FaultPoint::WorkerStall).hold = true;
    FaultInjector faults(plan);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.queue_capacity = 3;
    cfg.render.sh_degree = 1;
    cfg.admission.shed = ShedPolicy::DropOldest;
    cfg.faults = &faults;
    RenderService service(slot, cfg);

    // Worker pinned: 6 submits through a 3-deep queue evict ids 1-3.
    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 6; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    faults.release(FaultPoint::WorkerStall);
    for (int r = 0; r < 6; ++r) {
        RenderResponse resp = futs[r].get();
        if (r < 3) {
            EXPECT_EQ(resp.status, ServeStatus::ShedQueueFull)
                << "request " << r;
        } else {
            ASSERT_TRUE(resp.ok()) << "request " << r;
            // Admitted frames stay bitwise identical to direct renders.
            auto subset = frustumCull(fix.model, fix.cameras[r % 6]);
            Image direct = renderForward(fix.model, fix.cameras[r % 6],
                                         subset, cfg.render)
                               .image;
            EXPECT_EQ(resp.image.data(), direct.data());
        }
    }
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.shed_queue_full, 3u);
    EXPECT_EQ(stats.requests, 3u);
}

TEST(RenderService, DeadlineExpiredRequestsAreShedAtDequeue)
{
    BatchFixture fix(400);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    FaultPlan plan;
    plan.at(FaultPoint::WorkerStall).every_n = 1;
    plan.at(FaultPoint::WorkerStall).hold = true;
    FaultInjector faults(plan);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    cfg.admission.deadline_s = 0.02;
    cfg.faults = &faults;
    RenderService service(slot, cfg);

    // Queue 6 requests behind a pinned worker, outlive their deadline,
    // then release: the sweep fails all of them without rendering.
    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 6; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    faults.release(FaultPoint::WorkerStall);
    for (auto &f : futs) {
        RenderResponse resp = f.get();
        EXPECT_EQ(resp.status, ServeStatus::ShedDeadline);
        EXPECT_GE(resp.queue_s, 0.02);
    }
    // The service is still healthy: a fresh request renders Ok.
    RenderResponse fresh = service.submit(fix.cameras[0]).get();
    EXPECT_TRUE(fresh.ok());
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.shed_deadline, 6u);
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.submitted, 7u);
}

TEST(RenderService, TokenBucketThrottlesPerClientDeterministically)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.render.sh_degree = 1;
    // No refill: exactly the first burst=2 requests per client admit —
    // the deterministic fairness configuration.
    cfg.admission.client_burst = 2;
    cfg.admission.client_rate = 0;
    RenderService service(slot, cfg);

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 4; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6],
                                      /*client_id=*/10));
    for (int r = 0; r < 3; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6],
                                      /*client_id=*/20));
    std::vector<ServeStatus> statuses;
    for (auto &f : futs)
        statuses.push_back(f.get().status);
    // Client 10: 2 admitted then 2 throttled; client 20: 2 then 1 —
    // one client's burst never eats another's.
    EXPECT_EQ(statuses,
              (std::vector<ServeStatus>{
                  ServeStatus::Ok, ServeStatus::Ok,
                  ServeStatus::ThrottledClient,
                  ServeStatus::ThrottledClient, ServeStatus::Ok,
                  ServeStatus::Ok, ServeStatus::ThrottledClient}));
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.throttled_client, 3u);
    EXPECT_EQ(stats.requests, 4u);

    // With a refill rate, a drained bucket recovers.
    SnapshotSlot slot2;
    slot2.publish(fix.model, 0);
    ServeConfig cfg2 = cfg;
    cfg2.admission.client_burst = 1;
    cfg2.admission.client_rate = 200;    // 1 token per 5 ms
    RenderService service2(slot2, cfg2);
    EXPECT_TRUE(service2.submit(fix.cameras[0], 1).get().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_TRUE(service2.submit(fix.cameras[1], 1).get().ok());
    service2.stop();
}

TEST(RenderService, BlockTimeoutShedsInsteadOfWaitingForever)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    FaultPlan plan;
    plan.at(FaultPoint::WorkerStall).every_n = 1;
    plan.at(FaultPoint::WorkerStall).hold = true;
    FaultInjector faults(plan);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    cfg.queue_capacity = 2;
    cfg.render.sh_degree = 1;
    cfg.admission.shed = ShedPolicy::Block;
    cfg.admission.block_timeout_s = 0.01;
    cfg.faults = &faults;
    RenderService service(slot, cfg);

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 3; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    // The third submit waited its 10 ms window against a pinned worker
    // and shed; it did NOT hang the caller.
    EXPECT_EQ(futs[2].get().status, ServeStatus::ShedQueueFull);
    faults.release(FaultPoint::WorkerStall);
    EXPECT_TRUE(futs[0].get().ok());
    EXPECT_TRUE(futs[1].get().ok());
    service.stop();
}

} // namespace
} // namespace clm
