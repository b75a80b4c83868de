/**
 * @file
 * Tests for the extensions beyond the paper's core: BVH-accelerated
 * culling (§8 future work), the thread pool, parallel rasterization/Adam
 * determinism, the dedicated asynchronous CPU Adam thread (§5.4),
 * densification integrated with the offloaded trainer, and model I/O.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>

#include "gaussian/io.hpp"
#include "math/rng.hpp"
#include "render/bvh.hpp"
#include "render/culling.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "train/clm_trainer.hpp"
#include "train/quality_harness.hpp"
#include "util/thread_pool.hpp"

namespace clm {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            hits[i]++;
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWait)
{
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { counter++; });
    pool.wait();
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, EmptyAndTinyRanges)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [&](size_t, size_t) { FAIL(); });
    std::atomic<int> n{0};
    pool.parallelFor(1, [&](size_t b, size_t e) {
        n += static_cast<int>(e - b);
    });
    EXPECT_EQ(n.load(), 1);
}

class BvhTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BvhTest, CullIdenticalToLinearSweep)
{
    int leaf_size = GetParam();
    SceneSpec spec = SceneSpec::rubble();
    GaussianModel m = generateSceneGaussians(spec, 3000);
    auto cams = generateCameraPath(spec, 8, 64, 48);

    BvhConfig cfg;
    cfg.leaf_size = leaf_size;
    GaussianBvh bvh(m, cfg);
    for (const Camera &cam : cams) {
        auto linear = frustumCull(m, cam);
        auto accel = bvh.cull(cam);
        EXPECT_EQ(linear, accel);
    }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, BvhTest, ::testing::Values(1, 8, 64));

TEST(Bvh, SkipsMostLeafTestsOnSparseScenes)
{
    SceneSpec spec = SceneSpec::bigCity();
    GaussianModel m = generateSceneGaussians(spec, 20000);
    auto cams = generateCameraPath(spec, 4, 64, 48);
    GaussianBvh bvh(m);
    bvh.cull(cams[0]);
    const auto &stats = bvh.lastStats();
    // The tree should prune the vast majority of exact tests (BigCity
    // views touch <1% of Gaussians).
    EXPECT_LT(stats.leaf_tests, m.size() / 4);
    EXPECT_GT(stats.boxes_rejected, 0u);
}

TEST(Bvh, RefitFollowsParameterDrift)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateSceneGaussians(spec, 1000);
    GaussianBvh bvh(m);
    // Drift every Gaussian, refit, and compare against fresh culling.
    Rng rng(5);
    for (size_t i = 0; i < m.size(); ++i)
        m.position(i) += rng.normal3({0, 0, 0}, 0.5f);
    bvh.refit(m);
    auto cams = generateCameraPath(spec, 4, 48, 48);
    for (const Camera &cam : cams)
        EXPECT_EQ(bvh.cull(cam), frustumCull(m, cam));
}

TEST(Bvh, EmptyAndSingletonModels)
{
    GaussianModel empty;
    GaussianBvh b0(empty);
    Camera cam = Camera::lookAt({0, 0, 0}, {0, 0, 5}, {0, 1, 0}, 32, 32,
                                1.0f);
    EXPECT_TRUE(b0.cull(cam).empty());

    GaussianModel one(1);
    one.position(0) = {0, 0, 3};
    one.logScale(0) = {-1, -1, -1};
    one.rotation(0) = {1, 0, 0, 0};
    GaussianBvh b1(one);
    EXPECT_EQ(b1.cull(cam), (std::vector<uint32_t>{0}));
}

TEST(ParallelRender, IdenticalToSerial)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 800);
    auto cams = generateCameraPath(spec, 2, 96, 64);
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        RenderConfig serial;
        serial.parallel = false;
        RenderConfig parallel;
        parallel.parallel = true;
        RenderOutput a = renderForward(m, cam, subset, serial);
        RenderOutput b = renderForward(m, cam, subset, parallel);
        EXPECT_EQ(a.image.data(), b.image.data());    // bitwise
        EXPECT_EQ(a.n_contrib, b.n_contrib);
    }
}

TEST(ParallelRender, BackwardIdenticalToSerial)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 600);
    auto cams = generateCameraPath(spec, 1, 96, 64);
    auto subset = frustumCull(m, cams[0]);
    Image d_image(96, 64, {0.3f, -0.2f, 0.1f});

    auto run = [&](bool parallel) {
        RenderConfig cfg;
        cfg.parallel = parallel;
        RenderOutput out = renderForward(m, cams[0], subset, cfg);
        GaussianGrads g;
        g.resize(m.size());
        renderBackward(m, cams[0], cfg, out, d_image, g);
        return g;
    };
    GaussianGrads a = run(false);
    GaussianGrads b = run(true);
    double max_rel = 0;
    for (size_t i = 0; i < m.size(); ++i) {
        double denom =
            std::max(1e-12, std::abs(double(a.d_position[i].x)));
        max_rel = std::max(
            max_rel,
            std::abs(double(a.d_position[i].x) - b.d_position[i].x)
                / denom);
    }
    // Chunked reduction can reorder float sums across tiles; the drift
    // must stay at rounding level.
    EXPECT_LT(max_rel, 1e-4);
}

TEST(ParallelAdam, IdenticalToSerial)
{
    Rng rng(6);
    GaussianModel m1 = GaussianModel::random(3000, {-5, -5, -5},
                                             {5, 5, 5}, 0.1f, rng);
    GaussianModel m2 = m1;
    GaussianGrads g;
    g.resize(3000);
    for (size_t i = 0; i < 3000; ++i)
        g.d_position[i] = {float(i % 7) - 3.0f, 1.0f, -0.5f};

    AdamConfig serial_cfg;
    serial_cfg.parallel = false;
    AdamConfig parallel_cfg;
    parallel_cfg.parallel = true;
    CpuAdam a(serial_cfg), b(parallel_cfg);
    a.reset(3000);
    b.reset(3000);
    std::vector<uint32_t> all(3000);
    std::iota(all.begin(), all.end(), 0u);
    a.updateSubset(m1, g, all);
    b.updateSubset(m2, g, all);
    for (size_t i = 0; i < 3000; i += 97) {
        EXPECT_FLOAT_EQ(m1.position(i).x, m2.position(i).x);
        EXPECT_FLOAT_EQ(m1.sh(i)[3], m2.sh(i)[3]);
    }
}

struct TrainFixture
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel gt;
    std::vector<Camera> cameras;
    std::vector<Image> gt_images;
    TrainConfig config;

    TrainFixture()
    {
        spec.train = {700, 8, 48, 48};
        gt = generateGroundTruth(spec, 700);
        cameras = trainCameras(spec);
        config.batch_size = 4;
        config.render.sh_degree = 1;
        config.loss.ssim_window = 5;
        gt_images = renderGroundTruth(gt, cameras, config.render);
    }
};

TEST(AsyncAdam, MatchesSynchronousClmTrainer)
{
    TrainFixture f;
    TrainConfig sync_cfg = f.config;
    TrainConfig async_cfg = f.config;
    async_cfg.async_adam = true;

    ClmTrainer sync_t(makeTrainee(f.gt, 300, 9), f.cameras, f.gt_images,
                      sync_cfg);
    ClmTrainer async_t(makeTrainee(f.gt, 300, 9), f.cameras, f.gt_images,
                       async_cfg);
    for (int step = 0; step < 3; ++step) {
        std::vector<int> ids{step % 8, (step + 2) % 8, (step + 4) % 8,
                             (step + 6) % 8};
        BatchStats ss = sync_t.trainBatch(ids);
        BatchStats sa = async_t.trainBatch(ids);
        EXPECT_EQ(ss.adam_updated, sa.adam_updated);
        EXPECT_NEAR(ss.loss, sa.loss, 1e-6);
    }
    for (size_t i = 0; i < sync_t.model().size(); i += 13) {
        EXPECT_FLOAT_EQ(sync_t.model().position(i).x,
                        async_t.model().position(i).x);
        EXPECT_FLOAT_EQ(sync_t.model().rawOpacity(i),
                        async_t.model().rawOpacity(i));
    }
}

TEST(DensifyTraining, GpuOnlyGrowsAndKeepsTraining)
{
    TrainFixture f;
    GpuOnlyTrainer t(makeTrainee(f.gt, 200, 10), f.cameras, f.gt_images,
                     f.config);
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;    // aggressive for the test
    dc.prune_opacity = 1e-4f;
    t.enableDensification(dc);
    t.trainSteps(3);
    size_t before = t.model().size();
    DensifyStats stats = t.densifyNow();
    EXPECT_EQ(stats.resulting_size, t.model().size());
    EXPECT_GT(t.model().size(), before);    // clones/splits happened
    // Training continues after the topology change.
    auto s = t.trainSteps(2);
    EXPECT_GT(s.back().adam_updated, 0u);
}

TEST(DensifyTraining, ClmRebuildsOffloadStateAndStaysEquivalent)
{
    TrainFixture f;
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;

    GpuOnlyTrainer gpu(makeTrainee(f.gt, 200, 11), f.cameras, f.gt_images,
                       f.config);
    ClmTrainer clm(makeTrainee(f.gt, 200, 11), f.cameras, f.gt_images,
                   f.config);
    gpu.enableDensification(dc);
    clm.enableDensification(dc);

    std::vector<int> ids{0, 2, 4, 6};
    gpu.trainBatch(ids);
    clm.trainBatch(ids);
    DensifyStats sg = gpu.densifyNow();
    DensifyStats sc = clm.densifyNow();
    // Same observations + same seed -> same densification decisions.
    EXPECT_EQ(sg.cloned, sc.cloned);
    EXPECT_EQ(sg.split, sc.split);
    EXPECT_EQ(sg.pruned, sc.pruned);
    ASSERT_EQ(gpu.model().size(), clm.model().size());
    EXPECT_EQ(clm.pinnedBytes(),
              PinnedLayout::totalBytes(clm.model().size()));

    // Both keep training and stay equivalent afterwards.
    std::vector<int> ids2{1, 3, 5, 7};
    gpu.trainBatch(ids2);
    clm.trainBatch(ids2);
    for (size_t i = 0; i < gpu.model().size(); i += 17) {
        EXPECT_NEAR(gpu.model().position(i).x, clm.model().position(i).x,
                    2e-4f);
    }
}

TEST(ModelIo, SaveLoadRoundTrip)
{
    Rng rng(12);
    GaussianModel m = GaussianModel::random(50, {-2, -2, -2}, {2, 2, 2},
                                            0.2f, rng);
    for (size_t i = 0; i < m.size(); ++i)
        for (int k = 0; k < kShDim; ++k)
            m.sh(i)[k] = rng.normal();
    std::string path = "/tmp/clm_test_checkpoint.bin";
    saveModel(m, path);
    GaussianModel loaded = loadModel(path);
    ASSERT_EQ(loaded.size(), m.size());
    for (size_t i = 0; i < m.size(); ++i) {
        EXPECT_FLOAT_EQ(loaded.position(i).x, m.position(i).x);
        EXPECT_FLOAT_EQ(loaded.logScale(i).y, m.logScale(i).y);
        EXPECT_FLOAT_EQ(loaded.rotation(i).z, m.rotation(i).z);
        EXPECT_FLOAT_EQ(loaded.sh(i)[47], m.sh(i)[47]);
        EXPECT_FLOAT_EQ(loaded.rawOpacity(i), m.rawOpacity(i));
    }
    std::remove(path.c_str());
}

TEST(ModelIo, RejectsGarbageFiles)
{
    std::string path = "/tmp/clm_test_garbage.bin";
    std::FILE *file = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", file);
    std::fclose(file);
    EXPECT_ANY_THROW(loadModel(path));
    EXPECT_ANY_THROW(loadModel("/nonexistent/path/x.bin"));
    std::remove(path.c_str());
}

TEST(ModelIo, RejectsCountTheFileCannotHold)
{
    // A valid 16-byte header whose count (2^36) no file body backs: the
    // loader must throw before it allocates the model.
    std::string path = "/tmp/clm_test_forged_count.bin";
    const uint32_t version = 1;
    uint64_t count = uint64_t(1) << 36;
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite("CLMG", 1, 4, file);
    std::fwrite(&version, sizeof(version), 1, file);
    std::fwrite(&count, sizeof(count), 1, file);
    std::fclose(file);
    EXPECT_ANY_THROW(loadModel(path));

    // One row short of the claimed count is rejected too; the exact
    // count loads.
    Rng rng(14);
    saveModel(GaussianModel::random(3, {-1, -1, -1}, {1, 1, 1}, 0.1f, rng),
              path);
    file = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    count = 4;
    std::fseek(file, 8, SEEK_SET);
    std::fwrite(&count, sizeof(count), 1, file);
    std::fclose(file);
    EXPECT_ANY_THROW(loadModel(path));
    file = std::fopen(path.c_str(), "r+b");
    count = 3;
    std::fseek(file, 8, SEEK_SET);
    std::fwrite(&count, sizeof(count), 1, file);
    std::fclose(file);
    EXPECT_EQ(loadModel(path).size(), 3u);
    std::remove(path.c_str());
}

TEST(ModelIo, PlyExportHasHeaderAndRows)
{
    Rng rng(13);
    GaussianModel m = GaussianModel::random(10, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    std::string path = "/tmp/clm_test_points.ply";
    exportPly(m, path);
    std::FILE *file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr);
    char line[256];
    ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
    EXPECT_STREQ(line, "ply\n");
    int lines = 0;
    while (std::fgets(line, sizeof(line), file))
        ++lines;
    std::fclose(file);
    // 10 more header lines (format, element, 7 properties, end_header)
    // + 10 vertex rows.
    EXPECT_EQ(lines, 10 + 10);
    std::remove(path.c_str());
}


TEST(LrSchedule, PositionLrDecaysExponentially)
{
    AdamConfig cfg;
    cfg.lr_position = 1.6e-4f;
    cfg.lr_position_final = 1.6e-6f;
    cfg.position_lr_max_steps = 100;
    cfg.parallel = false;
    CpuAdam adam(cfg);
    adam.reset(1);
    GaussianModel m(1);
    GaussianGrads g;
    g.resize(1);
    g.d_position[0] = {1.0f, 0, 0};

    // With a constant gradient, Adam's bias-corrected step magnitude
    // approaches lr; later steps must therefore shrink with the
    // schedule. Compare early vs late step sizes.
    float prev = m.position(0).x;
    adam.update(m, g);
    float early_step = std::abs(m.position(0).x - prev);
    for (int t = 0; t < 120; ++t)
        adam.update(m, g);
    prev = m.position(0).x;
    adam.update(m, g);
    float late_step = std::abs(m.position(0).x - prev);
    EXPECT_LT(late_step, early_step / 20.0f);    // ~100x LR decay

    // Disabled schedule keeps the step size flat.
    AdamConfig flat = cfg;
    flat.lr_position_final = flat.lr_position;
    CpuAdam adam2(flat);
    adam2.reset(1);
    GaussianModel m2(1);
    adam2.update(m2, g);
    float first = std::abs(m2.position(0).x);
    for (int t = 0; t < 120; ++t)
        adam2.update(m2, g);
    prev = m2.position(0).x;
    adam2.update(m2, g);
    EXPECT_NEAR(std::abs(m2.position(0).x - prev), first, first * 0.2f);
}

TEST(ShRamp, DegreeIncreasesWithBatches)
{
    TrainFixture f;
    TrainConfig cfg = f.config;
    cfg.render.sh_degree = 2;
    cfg.sh_degree_interval = 2;    // +1 degree every 2 batches
    GpuOnlyTrainer t(makeTrainee(f.gt, 200, 30), f.cameras, f.gt_images,
                     cfg);
    EXPECT_EQ(t.activeShDegree(), 0);
    t.trainSteps(2);
    EXPECT_EQ(t.activeShDegree(), 1);
    t.trainSteps(2);
    EXPECT_EQ(t.activeShDegree(), 2);
    t.trainSteps(4);
    EXPECT_EQ(t.activeShDegree(), 2);    // capped at render.sh_degree
}

TEST(AttributeOffload, PoisonedUnloadedAttributesNeverRead)
{
    // The strongest form of the §4.1 claim: rendering only ever touches
    // non-critical attributes that the selective loader placed. Poison
    // everything; the loads must overwrite exactly what rendering reads.
    TrainFixture f;
    ClmTrainer t(makeTrainee(f.gt, 300, 33), f.cameras, f.gt_images,
                 f.config);
    for (int step = 0; step < 3; ++step) {
        t.debugPoisonScratchNonCritical();
        BatchStats s = t.trainBatch({0, 2, 4, 6});
        EXPECT_TRUE(std::isfinite(s.loss)) << "step " << step;
    }
    // The learned model itself stays finite.
    for (size_t i = 0; i < t.model().size(); ++i) {
        EXPECT_TRUE(std::isfinite(t.model().rawOpacity(i)));
        EXPECT_TRUE(std::isfinite(t.model().sh(i)[0]));
    }
}

TEST(Robustness, ViewWithEmptyFrustumSet)
{
    // A camera pointing away from all content: |S_i| == 0. The whole
    // pipeline (planner, buffers, rasterizer, Adam) must cope.
    TrainFixture f;
    auto cameras = f.cameras;
    cameras.push_back(Camera::lookAt({0, 0, 50}, {0, 0, 100}, {0, 1, 0},
                                     48, 48, 0.6f, 0.1f, 20.0f));
    auto gt_images = f.gt_images;
    gt_images.push_back(Image(48, 48, {0, 0, 0}));

    ClmTrainer t(makeTrainee(f.gt, 200, 31), cameras, gt_images,
                 f.config);
    int empty_view = static_cast<int>(cameras.size()) - 1;
    BatchStats s = t.trainBatch({0, empty_view, 2, empty_view});
    EXPECT_GT(s.adam_updated, 0u);
    // And a batch of only empty views updates nothing but still runs.
    BatchStats s2 = t.trainBatch({empty_view, empty_view});
    EXPECT_EQ(s2.adam_updated, 0u);
    EXPECT_EQ(s2.gaussians_rendered, 0u);
}

} // namespace
} // namespace clm
