/**
 * @file
 * Gradient checks: the analytic backward pass of the full differentiable
 * pipeline (rasterizer -> projection -> SH/covariance/opacity) and of the
 * L1 + D-SSIM loss are validated against central finite differences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "math/rng.hpp"
#include "render/arena.hpp"
#include "render/camera.hpp"
#include "render/culling.hpp"
#include "render/loss.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"

// The kernel body compiled once more on the scalar F8 backend with
// 3-entry position blocks, so ordinary tiles span many blocks
// (RenderKernelBlocks below).
#define CLM_F8_FORCE_SCALAR 1
#define CLM_KERNEL_POS_BLOCK size_t(3)
#include "math/simd.hpp"

namespace clm {
namespace {
namespace small_block {
#include "render/simd_kernels_impl.inl"
} // namespace small_block
} // namespace
} // namespace clm

namespace clm {
namespace {

Camera
testCamera(int wh = 24)
{
    return Camera::lookAt({0, 0, 0}, {0, 0, 10}, {0, 1, 0}, wh, wh, 1.0f,
                          0.1f, 100.0f);
}

/** A well-conditioned random scene away from clamp boundaries. */
GaussianModel
fdScene(size_t n, uint64_t seed)
{
    Rng rng(seed);
    GaussianModel m(n);
    constexpr float kY0 = 0.28209479177387814f;
    for (size_t i = 0; i < n; ++i) {
        m.position(i) = {rng.uniform(-2.0f, 2.0f),
                         rng.uniform(-2.0f, 2.0f),
                         rng.uniform(4.0f, 9.0f)};
        float ls = std::log(rng.uniform(0.3f, 0.7f));
        m.logScale(i) = {ls + rng.normal(0.0f, 0.15f),
                         ls + rng.normal(0.0f, 0.15f),
                         ls + rng.normal(0.0f, 0.15f)};
        Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
        m.rotation(i) = Quat::fromAxisAngle(
            axis.norm() > 1e-5f ? axis : Vec3{0, 0, 1},
            rng.uniform(0.0f, 3.0f));
        // Mid-range colors keep the SH clamp inactive.
        m.sh(i)[0] = (rng.uniform(0.35f, 0.75f) - 0.5f) / kY0;
        m.sh(i)[1] = (rng.uniform(0.35f, 0.75f) - 0.5f) / kY0;
        m.sh(i)[2] = (rng.uniform(0.35f, 0.75f) - 0.5f) / kY0;
        for (int k = 3; k < kShDim; ++k)
            m.sh(i)[k] = rng.normal(0.0f, 0.03f);
        m.rawOpacity(i) = inverseSigmoid(rng.uniform(0.4f, 0.75f));
    }
    return m;
}

Image
fdGroundTruth(int wh, uint64_t seed)
{
    Rng rng(seed);
    Image gt(wh, wh);
    for (int y = 0; y < wh; ++y)
        for (int x = 0; x < wh; ++x)
            gt.setPixel(x, y, {0.5f + 0.3f * std::sin(0.4f * x),
                               0.5f + 0.3f * std::cos(0.3f * y),
                               rng.uniform(0.3f, 0.7f)});
    return gt;
}

/**
 * The renderer backward is checked against a *smooth* random linear
 * functional L = sum_ij w_ij . image_ij, so finite differences are exact.
 * (The L1 term of the real loss has sign kinks that make FD unreliable;
 * the loss backward has its own dedicated FD test below.)
 */
struct Pipeline
{
    Camera cam = testCamera();
    RenderConfig render;
    Image weights = fdGroundTruth(24, 99);    // random smooth weights
    std::vector<uint32_t> subset;

    explicit Pipeline(size_t n, int sh_degree = 3)
    {
        render.sh_degree = sh_degree;
        render.background = {0.1f, 0.1f, 0.1f};
        // The production thresholds (1/255 alpha cut, early termination)
        // and the 3-sigma tile truncation are step discontinuities; FD
        // across them measures the jump, not the gradient. Relax the
        // thresholds and use a larger eps so the jumps' contribution is
        // negligible relative to the smooth gradient.
        render.alpha_min = 1e-6f;
        render.transmittance_min = 1e-9f;
        for (size_t i = 0; i < n; ++i)
            subset.push_back(static_cast<uint32_t>(i));
    }

    double
    forward(const GaussianModel &m) const
    {
        RenderOutput out = renderForward(m, cam, subset, render);
        double acc = 0.0;
        const auto &img = out.image.data();
        const auto &w = weights.data();
        for (size_t i = 0; i < img.size(); ++i)
            acc += double(w[i]) * img[i];
        return acc;
    }

    GaussianGrads
    backward(const GaussianModel &m) const
    {
        RenderOutput out = renderForward(m, cam, subset, render);
        GaussianGrads g;
        g.resize(m.size());
        renderBackward(m, cam, render, out, weights, g);
        return g;
    }
};

/** Central finite difference of the pipeline loss w.r.t. one scalar. */
double
finiteDiff(Pipeline &pipe, GaussianModel &m, float &param,
           float eps = 1e-2f)
{
    float saved = param;
    param = saved + eps;
    double lp = pipe.forward(m);
    param = saved - eps;
    double lm = pipe.forward(m);
    param = saved;
    return (lp - lm) / (2.0 * eps);
}

void
expectClose(double analytic, double fd, double scale_hint)
{
    double tol = 5e-2 * std::max({std::abs(analytic), std::abs(fd),
                                  scale_hint});
    EXPECT_NEAR(analytic, fd, tol);
}

TEST(LossBackward, MatchesFiniteDifference)
{
    Rng rng(7);
    int wh = 12;
    Image x(wh, wh), y(wh, wh);
    for (int py = 0; py < wh; ++py)
        for (int px = 0; px < wh; ++px) {
            x.setPixel(px, py, {rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f)});
            y.setPixel(px, py, {rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f)});
        }
    LossConfig cfg;
    cfg.ssim_window = 5;
    Image d;
    computeLoss(x, y, &d, cfg);

    const float eps = 1e-3f;
    Rng pick(8);
    for (int it = 0; it < 30; ++it) {
        size_t idx = static_cast<size_t>(
            pick.uniformInt(0, static_cast<int64_t>(x.data().size()) - 1));
        float saved = x.data()[idx];
        x.data()[idx] = saved + eps;
        double lp = computeLoss(x, y, nullptr, cfg).total;
        x.data()[idx] = saved - eps;
        double lm = computeLoss(x, y, nullptr, cfg).total;
        x.data()[idx] = saved;
        double fd = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(d.data()[idx], fd,
                    2e-2 * std::max(1e-4, std::abs(fd)))
            << "pixel value index " << idx;
    }
}

class RenderBackwardTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RenderBackwardTest, PositionGradients)
{
    int sh_degree = GetParam();
    Pipeline pipe(6, sh_degree);
    GaussianModel m = fdScene(6, 10 + sh_degree);
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); i += 2) {
        expectClose(g.d_position[i].x,
                    finiteDiff(pipe, m, m.position(i).x), 1e-4);
        expectClose(g.d_position[i].y,
                    finiteDiff(pipe, m, m.position(i).y), 1e-4);
        expectClose(g.d_position[i].z,
                    finiteDiff(pipe, m, m.position(i).z), 1e-4);
    }
}

TEST_P(RenderBackwardTest, ScaleGradients)
{
    Pipeline pipe(6, GetParam());
    GaussianModel m = fdScene(6, 20 + GetParam());
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); i += 2) {
        expectClose(g.d_log_scale[i].x,
                    finiteDiff(pipe, m, m.logScale(i).x), 1e-4);
        expectClose(g.d_log_scale[i].z,
                    finiteDiff(pipe, m, m.logScale(i).z), 1e-4);
    }
}

TEST_P(RenderBackwardTest, RotationGradients)
{
    Pipeline pipe(6, GetParam());
    GaussianModel m = fdScene(6, 30 + GetParam());
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); i += 3) {
        expectClose(g.d_rotation[i].w,
                    finiteDiff(pipe, m, m.rotation(i).w), 1e-4);
        expectClose(g.d_rotation[i].x,
                    finiteDiff(pipe, m, m.rotation(i).x), 1e-4);
        expectClose(g.d_rotation[i].y,
                    finiteDiff(pipe, m, m.rotation(i).y), 1e-4);
        expectClose(g.d_rotation[i].z,
                    finiteDiff(pipe, m, m.rotation(i).z), 1e-4);
    }
}

TEST_P(RenderBackwardTest, OpacityGradients)
{
    Pipeline pipe(6, GetParam());
    GaussianModel m = fdScene(6, 40 + GetParam());
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); ++i) {
        expectClose(g.d_opacity[i],
                    finiteDiff(pipe, m, m.rawOpacity(i)), 1e-4);
    }
}

TEST_P(RenderBackwardTest, ShGradients)
{
    int sh_degree = GetParam();
    Pipeline pipe(4, sh_degree);
    GaussianModel m = fdScene(4, 50 + sh_degree);
    GaussianGrads g = pipe.backward(m);
    int nb = shBasisCount(sh_degree);
    for (size_t i = 0; i < m.size(); i += 2) {
        for (int k = 0; k < nb * 3; k += 7) {
            expectClose(g.d_sh[i * kShDim + k],
                        finiteDiff(pipe, m, m.sh(i)[k]), 1e-4);
        }
        // Coefficients above the active degree must have zero gradient.
        for (int k = nb * 3; k < kShDim; ++k)
            EXPECT_FLOAT_EQ(g.d_sh[i * kShDim + k], 0.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(ShDegrees, RenderBackwardTest,
                         ::testing::Values(0, 1, 3));

TEST(RenderBackward, UntouchedRowsStayZero)
{
    Pipeline pipe(3);
    GaussianModel m = fdScene(3, 60);
    // Render only Gaussian 1; rows 0 and 2 must keep zero gradients.
    pipe.subset = {1};
    GaussianGrads g = pipe.backward(m);
    for (size_t i : {0u, 2u}) {
        EXPECT_FLOAT_EQ(g.d_position[i].x, 0.0f);
        EXPECT_FLOAT_EQ(g.d_opacity[i], 0.0f);
        EXPECT_FLOAT_EQ(g.d_sh[i * kShDim], 0.0f);
    }
    EXPECT_NE(g.d_opacity[1], 0.0f);
}

TEST(RenderBackward, ParallelBitwiseIdenticalToSerial)
{
    // The backward pass accumulates per-chunk partial gradients over a
    // FIXED tile-chunk partition (independent of execution mode) and
    // reduces them in chunk order, so parallel and serial runs perform
    // identical floating-point arithmetic: gradients must match bit
    // for bit, not just within tolerance.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 600);
    auto cams = generateCameraPath(spec, 2, 97, 61);
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        Image d_image(97, 61, {0.3f, -0.2f, 0.1f});
        auto run = [&](bool parallel, bool with_arena) {
            RenderConfig cfg;
            cfg.parallel = parallel;
            GaussianGrads g;
            g.resize(m.size());
            if (with_arena) {
                RenderArena arena;
                const RenderOutput &out =
                    renderForward(m, cam, subset, cfg, arena);
                renderBackward(m, cam, cfg, out, d_image, g, arena);
            } else {
                RenderOutput out = renderForward(m, cam, subset, cfg);
                renderBackward(m, cam, cfg, out, d_image, g);
            }
            return g;
        };
        GaussianGrads a = run(false, false);
        GaussianGrads b = run(true, false);
        GaussianGrads c = run(true, true);
        for (size_t i = 0; i < m.size(); ++i) {
            EXPECT_EQ(a.d_position[i].x, b.d_position[i].x) << i;
            EXPECT_EQ(a.d_position[i].y, b.d_position[i].y) << i;
            EXPECT_EQ(a.d_position[i].z, b.d_position[i].z) << i;
            EXPECT_EQ(a.d_opacity[i], b.d_opacity[i]) << i;
            EXPECT_EQ(a.d_log_scale[i].x, b.d_log_scale[i].x) << i;
            EXPECT_EQ(a.d_rotation[i].w, b.d_rotation[i].w) << i;
            EXPECT_EQ(a.d_sh[i * kShDim], b.d_sh[i * kShDim]) << i;
            // The arena overloads are pure scratch reuse.
            EXPECT_EQ(a.d_position[i].x, c.d_position[i].x) << i;
            EXPECT_EQ(a.d_opacity[i], c.d_opacity[i]) << i;
        }
    }
}

TEST(RenderBackward, MaskedTailWidthsBitwiseAcrossKernelTables)
{
    // The SIMD backward replays pixels in groups of 8; image widths
    // 96..103 sweep every tail width (w mod 8 = 0..7), so partial
    // groups at the right tile edge exercise the masked lanes. The
    // scalar kernel table runs the identical IEEE op sequence one lane
    // at a time, so gradients must agree bit for bit with whatever
    // table the CPU dispatched.
    const RenderKernels *scalar_kern =
        renderKernelsFor(SimdBackend::kScalar);
    ASSERT_NE(scalar_kern, nullptr);
    SceneSpec spec = SceneSpec::rubble();
    GaussianModel m = generateGroundTruth(spec, 500);
    for (int w = 96; w <= 103; ++w) {
        Camera cam = generateCameraPath(spec, 2, w, 59)[0];
        auto subset = frustumCull(m, cam);
        Image d_image(w, 59, {0.3f, -0.2f, 0.1f});
        auto run = [&](const RenderKernels *kern) {
            RenderConfig cfg;
            cfg.kernels = kern;
            RenderOutput out = renderForward(m, cam, subset, cfg);
            GaussianGrads g;
            g.resize(m.size());
            renderBackward(m, cam, cfg, out, d_image, g);
            return g;
        };
        GaussianGrads a = run(nullptr);    // dispatched table
        GaussianGrads b = run(scalar_kern);
        for (size_t i = 0; i < m.size(); ++i) {
            ASSERT_EQ(a.d_position[i].x, b.d_position[i].x)
                << "w=" << w << " i=" << i;
            ASSERT_EQ(a.d_position[i].y, b.d_position[i].y)
                << "w=" << w << " i=" << i;
            ASSERT_EQ(a.d_opacity[i], b.d_opacity[i])
                << "w=" << w << " i=" << i;
            ASSERT_EQ(a.d_log_scale[i].y, b.d_log_scale[i].y)
                << "w=" << w << " i=" << i;
            ASSERT_EQ(a.d_rotation[i].x, b.d_rotation[i].x)
                << "w=" << w << " i=" << i;
            ASSERT_EQ(a.d_sh[i * kShDim], b.d_sh[i * kShDim])
                << "w=" << w << " i=" << i;
        }
    }
}

TEST(RenderBackward, GradientDescentReducesRealLoss)
{
    // End-to-end: SGD along the analytic gradient of the *real* training
    // loss (L1 + D-SSIM) must reduce it.
    Camera cam = testCamera();
    RenderConfig render;
    LossConfig loss;
    loss.ssim_window = 5;
    Image gt = fdGroundTruth(24, 99);
    GaussianModel m = fdScene(8, 70);
    std::vector<uint32_t> subset;
    for (size_t i = 0; i < m.size(); ++i)
        subset.push_back(static_cast<uint32_t>(i));

    auto eval = [&](GaussianGrads *g) {
        RenderOutput out = renderForward(m, cam, subset, render);
        Image d_image;
        LossResult r =
            computeLoss(out.image, gt, g ? &d_image : nullptr, loss);
        if (g)
            renderBackward(m, cam, render, out, d_image, *g);
        return r.total;
    };

    double before = eval(nullptr);
    for (int step = 0; step < 8; ++step) {
        GaussianGrads g;
        g.resize(m.size());
        eval(&g);
        for (size_t i = 0; i < m.size(); ++i) {
            m.position(i) -= g.d_position[i] * 20.0f;
            m.logScale(i) -= g.d_log_scale[i] * 5.0f;
            m.rawOpacity(i) -= 50.0f * g.d_opacity[i];
            for (int k = 0; k < kShDim; ++k)
                m.sh(i)[k] -= 50.0f * g.d_sh[i * kShDim + k];
        }
    }
    double after = eval(nullptr);
    EXPECT_LT(after, before);
}

TEST(RenderKernelBlocks, SmallPositionBlocksBitwiseEqualProductionTables)
{
    // Walking a tile in position blocks (re-basing the float lane
    // position per block, carrying the lane state across) must not move
    // a bit: with 3-entry blocks every multi-entry tile spans many
    // blocks, and widths 97..103 leave lane tails at the right edge.
    const RenderKernels blocked{SimdBackend::kScalar, "scalar-block3",
                                &small_block::kernelCompositeTile,
                                &small_block::kernelBackwardTile,
                                &small_block::kernelCullPrefilter};
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 600);
    Rng rng(23);
    for (int w = 97; w <= 103; w += 3) {
        Camera cam = generateCameraPath(spec, 2, w, 61)[0];
        auto subset = frustumCull(m, cam);
        Image d_image(w, 61);
        for (float &v : d_image.data())
            v = rng.uniform(-0.5f, 0.5f);
        RenderConfig cfg;
        cfg.kernels = &blocked;
        RenderOutput ref = renderForward(m, cam, subset, cfg);
        EXPECT_GT(*std::max_element(ref.n_contrib.begin(),
                                    ref.n_contrib.end()),
                  30u);
        std::vector<float> alpha_cut, row_k;
        computeAlphaCutPowers(ref.projected, cfg.alpha_min, false,
                              alpha_cut, row_k);
        for (int b = 0; b < kNumSimdBackends; ++b) {
            const RenderKernels *kern =
                renderKernelsFor(static_cast<SimdBackend>(b));
            if (!kern)
                continue;
            SCOPED_TRACE(std::string(kern->name) + " w="
                         + std::to_string(w));
            RenderConfig pcfg;
            pcfg.kernels = kern;
            RenderOutput out = renderForward(m, cam, subset, pcfg);
            EXPECT_EQ(out.image.data(), ref.image.data());
            EXPECT_EQ(out.final_t, ref.final_t);
            EXPECT_EQ(out.n_contrib, ref.n_contrib);

            // Backward: every tile's 8-lane partials, byte for byte.
            TileStage stage;
            for (size_t t = 0; t < ref.tile_ranges.size(); ++t) {
                const TileRange range = ref.tile_ranges[t];
                if (range.size() == 0)
                    continue;
                stage.stageFrom(ref.projected, ref.isect_vals, range,
                                alpha_cut, row_k, /*stage_soa=*/true);
                const size_t n8 = range.size() * kG8Comps * 8;
                std::vector<float> g_ref(n8, 0.0f), g_out(n8, 0.0f);
                BackwardTileArgs args;
                args.mean_x = stage.soa_mean_x.data();
                args.mean_y = stage.soa_mean_y.data();
                args.conic_a = stage.soa_conic_a.data();
                args.conic_b = stage.soa_conic_b.data();
                args.conic_c = stage.soa_conic_c.data();
                args.power_cut = stage.soa_power_cut.data();
                args.row_k = stage.soa_row_k.data();
                args.opacity = stage.soa_opacity.data();
                args.color_r = stage.soa_color_r.data();
                args.color_g = stage.soa_color_g.data();
                args.color_b = stage.soa_color_b.data();
                args.len = range.size();
                const int tx = static_cast<int>(t) % ref.tiles_x;
                const int ty = static_cast<int>(t) / ref.tiles_x;
                args.px0 = tx * cfg.tile_size;
                args.px1 = std::min(args.px0 + cfg.tile_size, w);
                args.py0 = ty * cfg.tile_size;
                args.py1 = std::min(args.py0 + cfg.tile_size, 61);
                args.width = w;
                args.alpha_min = cfg.alpha_min;
                args.background = cfg.background;
                args.final_t = ref.final_t.data();
                args.n_contrib = ref.n_contrib.data();
                args.d_image = d_image.data().data();
                args.grad8 = g_ref.data();
                blocked.backward_tile(args);
                args.grad8 = g_out.data();
                kern->backward_tile(args);
                ASSERT_EQ(std::memcmp(g_ref.data(), g_out.data(),
                                      n8 * sizeof(float)),
                          0)
                    << "tile " << t << " (" << range.size()
                    << " entries)";
            }
        }
    }
}


} // namespace
} // namespace clm
