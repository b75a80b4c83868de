/**
 * @file
 * Integration tests: the three functional trainers must be equivalent —
 * CLM's offloading (attribute split, caching, carried gradients, subset
 * Adam) is a pure systems transformation of GPU-only training — and
 * training must actually reconstruct scenes (loss down, PSNR up). Also
 * covers the Clm facade and the quality harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>

#include "core/clm.hpp"
#include "serve/snapshot.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "train/quality_harness.hpp"

namespace clm {
namespace {

struct Fixture
{
    SceneSpec spec;
    GaussianModel gt;
    std::vector<Camera> cameras;
    std::vector<Image> gt_images;
    TrainConfig config;

    explicit Fixture(size_t gt_size = 700, int views = 8, int wh = 48)
        : spec(SceneSpec::bicycle())
    {
        spec.train = {gt_size, views, wh, wh};
        gt = generateGroundTruth(spec, gt_size);
        cameras = trainCameras(spec);
        config.batch_size = 4;
        config.render.sh_degree = 1;
        config.loss.ssim_window = 5;
        config.planner.tsp.time_limit_ms = 0.5;
        gt_images = renderGroundTruth(gt, cameras, config.render);
    }

    GaussianModel
    trainee(size_t size) const
    {
        return makeTrainee(gt, size, 1234);
    }
};

void
expectModelsClose(const GaussianModel &a, const GaussianModel &b,
                  float tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a.position(i).x, b.position(i).x, tol);
        EXPECT_NEAR(a.position(i).y, b.position(i).y, tol);
        EXPECT_NEAR(a.logScale(i).z, b.logScale(i).z, tol);
        EXPECT_NEAR(a.rotation(i).w, b.rotation(i).w, tol);
        EXPECT_NEAR(a.rawOpacity(i), b.rawOpacity(i), tol);
        EXPECT_NEAR(a.sh(i)[0], b.sh(i)[0], tol);
        EXPECT_NEAR(a.sh(i)[5], b.sh(i)[5], tol);
    }
}

TEST(TrainerEquivalence, ClmMatchesGpuOnlyTrajectory)
{
    // The core systems claim: CLM's offloaded execution computes the
    // same training step as GPU-only training.
    Fixture f;
    GpuOnlyTrainer gpu(f.trainee(300), f.cameras, f.gt_images, f.config);
    ClmTrainer clm(f.trainee(300), f.cameras, f.gt_images, f.config);

    std::vector<int> batch1{0, 3, 5, 6};
    std::vector<int> batch2{1, 2, 4, 7};
    for (const auto &ids : {batch1, batch2}) {
        BatchStats sg = gpu.trainBatch(ids);
        BatchStats sc = clm.trainBatch(ids);
        EXPECT_NEAR(sg.loss, sc.loss, 1e-4);
        EXPECT_EQ(sg.gaussians_rendered, sc.gaussians_rendered);
    }
    expectModelsClose(gpu.model(), clm.model(), 2e-4f);
}

TEST(TrainerEquivalence, NaiveMatchesGpuOnlyTrajectory)
{
    Fixture f;
    GpuOnlyTrainer gpu(f.trainee(300), f.cameras, f.gt_images, f.config);
    NaiveOffloadTrainer naive(f.trainee(300), f.cameras, f.gt_images,
                              f.config);
    std::vector<int> ids{0, 2, 4, 6};
    gpu.trainBatch(ids);
    naive.trainBatch(ids);
    expectModelsClose(gpu.model(), naive.model(), 1e-5f);
}

/** Equivalence must hold for every ordering strategy and with caching
 *  and Adam overlap toggled — they are performance knobs, not math. */
class ClmAblationEquivalence
    : public ::testing::TestWithParam<std::tuple<OrderingStrategy, bool>>
{
};

TEST_P(ClmAblationEquivalence, TrajectoryUnchanged)
{
    auto [ordering, enable_cache] = GetParam();
    Fixture f;
    TrainConfig cfg = f.config;
    cfg.planner.ordering = ordering;
    cfg.planner.enable_cache = enable_cache;

    GpuOnlyTrainer gpu(f.trainee(250), f.cameras, f.gt_images, f.config);
    ClmTrainer clm(f.trainee(250), f.cameras, f.gt_images, cfg);
    std::vector<int> ids{0, 1, 4, 7};
    gpu.trainBatch(ids);
    clm.trainBatch(ids);
    expectModelsClose(gpu.model(), clm.model(), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ClmAblationEquivalence,
    ::testing::Combine(::testing::Values(OrderingStrategy::Random,
                                         OrderingStrategy::Camera,
                                         OrderingStrategy::GsCount,
                                         OrderingStrategy::Tsp),
                       ::testing::Bool()));

TEST(ClmTrainerAccounting, CacheReducesTrafficNotResults)
{
    Fixture f;
    TrainConfig no_cache = f.config;
    no_cache.planner.enable_cache = false;
    no_cache.planner.ordering = OrderingStrategy::Tsp;
    TrainConfig cache = f.config;
    cache.planner.enable_cache = true;
    cache.planner.ordering = OrderingStrategy::Tsp;

    ClmTrainer a(f.trainee(300), f.cameras, f.gt_images, cache);
    ClmTrainer b(f.trainee(300), f.cameras, f.gt_images, no_cache);
    std::vector<int> ids{0, 1, 2, 3};
    BatchStats sa = a.trainBatch(ids);
    BatchStats sb = b.trainBatch(ids);
    EXPECT_LT(sa.h2d_bytes, sb.h2d_bytes);
    EXPECT_GT(sa.cache_hits, 0u);
    EXPECT_EQ(sb.cache_hits, 0u);
    expectModelsClose(a.model(), b.model(), 2e-4f);
}

TEST(ClmTrainerAccounting, PinnedBytesMatchLayout)
{
    Fixture f;
    ClmTrainer t(f.trainee(300), f.cameras, f.gt_images, f.config);
    EXPECT_EQ(t.pinnedBytes(), PinnedLayout::totalBytes(300));
}

TEST(ClmTrainerAccounting, AdamUpdatesEveryTouchedGaussianOnce)
{
    Fixture f;
    ClmTrainer t(f.trainee(300), f.cameras, f.gt_images, f.config);
    std::vector<int> ids{0, 1, 2, 3};
    BatchStats s = t.trainBatch(ids);
    EXPECT_EQ(s.adam_updated, t.lastPlan().fin.touched());
}

struct PublishCase
{
    SystemKind system;
    bool async_adam;
};

class SnapshotPublish : public ::testing::TestWithParam<PublishCase>
{
};

/**
 * The trainer publishes only the rows Adam changed since the last
 * publish; every published snapshot must still be bitwise the trainer's
 * model, with the full-model hash — across densification (size change)
 * and a reader pinning the spare buffer.
 */
TEST_P(SnapshotPublish, EverySnapshotIsBitwiseTheModel)
{
    Fixture f;
    f.config.async_adam = GetParam().async_adam;
    auto trainer = makeTrainer(GetParam().system, f.trainee(300),
                               f.cameras, f.gt_images, f.config);
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;    // aggressive: densify must resize
    trainer->enableDensification(dc);
    SnapshotSlot slot;
    trainer->setSnapshotSink(&slot);

    auto expectPublished = [&](const char *when, int step) {
        SCOPED_TRACE(std::string(when) + " step " + std::to_string(step));
        auto snap = slot.acquire();
        ASSERT_NE(snap, nullptr);
        EXPECT_TRUE(snap->model.bitwiseEquals(trainer->model()));
        EXPECT_EQ(snap->param_hash, hashModelParams(trainer->model()));
    };
    expectPublished("attach", 0);

    std::shared_ptr<const ModelSnapshot> pinned;
    const size_t size0 = trainer->model().size();
    for (int step = 0; step < 10; ++step) {
        if (step == 2)
            pinned = slot.acquire();    // the spare at step 3's publish
        if (step == 7)
            pinned.reset();
        trainer->trainSteps(1);
        expectPublished("train", step);
        if (step == 5) {
            trainer->densifyNow();
            expectPublished("densify", step);
        }
    }
    EXPECT_NE(trainer->model().size(), size0);
}

/** A slot fed by another source has nothing to do with the rows this
 *  trainer changed since its own last publish: attaching to it must
 *  republish every row. */
TEST(SnapshotPublishSinks, AttachingToAnotherSlotRepublishesEveryRow)
{
    Fixture f;
    ClmTrainer a(f.trainee(300), f.cameras, f.gt_images, f.config);
    GpuOnlyTrainer b(f.trainee(300), f.cameras, f.gt_images, f.config);
    SnapshotSlot slot_a, slot_b;
    a.setSnapshotSink(&slot_a);
    b.setSnapshotSink(&slot_b);
    a.trainSteps(2);
    b.trainSteps(3);
    ASSERT_FALSE(a.model().bitwiseEquals(b.model()));

    a.setSnapshotSink(&slot_b);
    EXPECT_TRUE(slot_b.acquire()->model.bitwiseEquals(a.model()));
    a.trainSteps(1);
    EXPECT_TRUE(slot_b.acquire()->model.bitwiseEquals(a.model()));
    EXPECT_EQ(slot_b.acquire()->param_hash, hashModelParams(a.model()));
}

INSTANTIATE_TEST_SUITE_P(
    Trainers, SnapshotPublish,
    ::testing::Values(PublishCase{SystemKind::Clm, false},
                      PublishCase{SystemKind::Clm, true},
                      PublishCase{SystemKind::EnhancedBaseline, false},
                      PublishCase{SystemKind::NaiveOffload, false}),
    [](const ::testing::TestParamInfo<PublishCase> &info) {
        std::string name = systemName(info.param.system);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char c) { return !std::isalnum(c); }),
                   name.end());
        return name + (info.param.async_adam ? "Async" : "");
    });

TEST(Training, LossDecreasesOverSteps)
{
    Fixture f;
    ClmTrainer t(f.trainee(400), f.cameras, f.gt_images, f.config);
    auto stats = t.trainSteps(10);
    double first = stats.front().loss;
    double last = stats.back().loss;
    EXPECT_LT(last, first);
}

TEST(Training, PsnrImprovesFromPerturbedInit)
{
    Fixture f;
    ClmTrainer t(f.trainee(500), f.cameras, f.gt_images, f.config);
    double before = t.evaluatePsnr();
    t.trainSteps(10);
    double after = t.evaluatePsnr();
    EXPECT_GT(after, before);
}

TEST(QualityHarness, LargerModelsScoreHigher)
{
    SceneSpec spec = SceneSpec::bicycle();
    spec.train = {600, 6, 40, 40};
    QualityConfig qc;
    qc.gt_gaussians = 600;
    qc.model_sizes = {60, 600};
    qc.steps = 4;
    qc.train.batch_size = 3;
    qc.train.render.sh_degree = 1;
    qc.train.loss.ssim_window = 5;
    auto points = runQualitySweep(spec, qc);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[1].psnr_final, points[0].psnr_final);
    // Training never hurts a converged-seeded model much; final PSNR
    // should beat the perturbed initialization.
    EXPECT_GT(points[1].psnr_final, points[1].psnr_initial);
}

TEST(ClmFacade, QuickstartFlow)
{
    ClmConfig cfg;
    cfg.scene = SceneSpec::bicycle();
    cfg.scene.train = {400, 6, 40, 40};
    cfg.model_size = 200;
    cfg.train.render.sh_degree = 1;
    cfg.train.loss.ssim_window = 5;
    Clm session(cfg);
    EXPECT_EQ(session.viewCount(), 6u);
    double before = session.evaluatePsnr();
    session.train(3);
    EXPECT_GE(session.evaluatePsnr(), before - 0.5);
    Image img = session.renderView(0);
    EXPECT_EQ(img.width(), 40);
    // Novel view renders without crashing and produces finite pixels.
    Camera novel = Camera::lookAt({8, 8, 4}, {0, 0, 1}, {0, 0, 1}, 40,
                                  40, 1.0f);
    Image nv = session.renderNovelView(novel);
    for (float v : nv.data())
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ClmFacade, ConfigValidation)
{
    ClmConfig cfg;
    cfg.scene.train.n_views = 0;
    EXPECT_ANY_THROW(Clm{cfg});
}

} // namespace
} // namespace clm
