/**
 * @file
 * SIMD kernel layer tests: F8 batch semantics, the documented exp8()
 * ULP bound against std::exp, lane-tail handling in the kernel
 * compositor, and the kernels against the brute-force std::exp
 * reference renderer (tests/reference_render.hpp): image closeness,
 * quality-harness-style PSNR delta < 0.05 dB, and backward gradients
 * against central differences of the reference's loss.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "math/rng.hpp"
#include "math/simd.hpp"
#include "render/arena.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "train/quality_harness.hpp"

#include "reference_render.hpp"

namespace clm {
namespace {

int32_t
floatBits(float x)
{
    int32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

TEST(Simd, LoadStoreRoundTrip)
{
    float src[9] = {0.0f, -1.5f, 2.25f, 1e-30f, -1e30f, 3.0f, -0.0f,
                    42.0f, 7.0f};
    float dst[9] = {};
    // Unaligned: exercise the offset-by-one path.
    F8::load(src + 1).store(dst + 1);
    for (int l = 1; l < 9; ++l)
        EXPECT_EQ(floatBits(dst[l]), floatBits(src[l])) << l;
}

TEST(Simd, ArithmeticAndSelectSemantics)
{
    float a_v[8] = {1, 2, 3, 4, -1, -2, 0.5f, 0};
    float b_v[8] = {4, 3, 2, 1, -2, -1, 0.25f, 0};
    F8 a = F8::load(a_v), b = F8::load(b_v);
    float sum[8], prod[8], mn[8], sel[8];
    (a + b).store(sum);
    (a * b).store(prod);
    F8::min(a, b).store(mn);
    F8::select(F8::lt(a, b), a, b).store(sel);
    for (int l = 0; l < 8; ++l) {
        EXPECT_EQ(sum[l], a_v[l] + b_v[l]);
        EXPECT_EQ(prod[l], a_v[l] * b_v[l]);
        EXPECT_EQ(mn[l], a_v[l] < b_v[l] ? a_v[l] : b_v[l]);
        // select(lt(a,b), a, b) is exactly min's definition.
        EXPECT_EQ(sel[l], mn[l]);
    }
}

TEST(Simd, MinMaxNanTakeSecondOperand)
{
    // Documented SSE convention on every backend: min(a, b) = a < b ?
    // a : b, so an unordered compare yields the SECOND operand.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    float a_v[8] = {nan, 1.0f, nan, 5.0f, nan, 2.0f, nan, 3.0f};
    float b_v[8] = {7.0f, nan, 8.0f, nan, 9.0f, nan, 1.0f, nan};
    float mn[8], mx[8];
    F8::min(F8::load(a_v), F8::load(b_v)).store(mn);
    F8::max(F8::load(a_v), F8::load(b_v)).store(mx);
    for (int l = 0; l < 8; ++l) {
        if (std::isnan(a_v[l])) {
            EXPECT_EQ(mn[l], b_v[l]) << l;
            EXPECT_EQ(mx[l], b_v[l]) << l;
        } else {
            EXPECT_TRUE(std::isnan(mn[l])) << l;
            EXPECT_TRUE(std::isnan(mx[l])) << l;
        }
    }
}

TEST(Simd, MaskAnyAll)
{
    float a_v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    F8 a = F8::load(a_v);
    F8 none = F8::lt(a, F8::zero());
    F8 all = F8::gt(a, F8::zero());
    F8 some = F8::gt(a, F8::broadcast(4.5f));
    EXPECT_FALSE(F8::any(none));
    EXPECT_TRUE(F8::all(all));
    EXPECT_TRUE(F8::any(some));
    EXPECT_FALSE(F8::all(some));
    EXPECT_TRUE(F8::any(F8::bitOr(none, some)));
    EXPECT_FALSE(F8::any(F8::bitAnd(none, some)));
    EXPECT_TRUE(F8::all(F8::bitOr(all, none)));
    // bitAndNot(mask, v) = ~mask & v.
    EXPECT_FALSE(F8::any(F8::bitAndNot(all, some)));
    EXPECT_TRUE(F8::any(F8::bitAndNot(some, all)));
}

TEST(Simd, Exp8WithinDocumentedUlpBound)
{
    // Dense sweep of the full clamped domain: exp8 must stay within
    // kExp8MaxUlp of the correctly-rounded float exponential.
    const double x0 = -87.33, x1 = 88.37;
    const int n = 800000;
    int32_t worst = 0;
    for (int i = 0; i < n; i += 8) {
        float xs[8], ys[8];
        for (int l = 0; l < 8; ++l)
            xs[l] = static_cast<float>(x0 + (x1 - x0) * (i + l) / n);
        exp8(F8::load(xs)).store(ys);
        for (int l = 0; l < 8; ++l) {
            float ref = static_cast<float>(
                std::exp(static_cast<double>(xs[l])));
            int32_t ulp = std::abs(floatBits(ys[l]) - floatBits(ref));
            worst = std::max(worst, ulp);
            ASSERT_LE(ulp, kExp8MaxUlp) << "x = " << xs[l];
        }
    }
    // The bound is not vacuous: the kernel is at most off by rounding.
    EXPECT_GE(worst, 0);

    // Exact and clamping behavior.
    float in[8] = {0.0f, -1000.0f, 1000.0f, -87.33f, 88.37f, 1.0f, -1.0f,
                   0.5f};
    float out[8];
    exp8(F8::load(in)).store(out);
    EXPECT_EQ(out[0], 1.0f);    // exp8(0) == 1 exactly
    EXPECT_GT(out[1], 0.0f);    // deep negative clamps to a normal float
    EXPECT_TRUE(std::isfinite(out[1]));
    EXPECT_TRUE(std::isfinite(out[2]));    // clamped, no overflow to inf
}

/** Forward renders of a real scene through the dispatched kernel
 *  table and the brute-force reference. */
struct KernelAndReference
{
    RenderOutput kernel;
    Image reference;

    KernelAndReference(const GaussianModel &m, const Camera &cam)
    {
        auto subset = frustumCull(m, cam);
        RenderConfig cfg;
        kernel = renderForward(m, cam, subset, cfg);
        reference = reference::render(m, cam, subset, cfg);
    }
};

TEST(SimdCompositor, LaneTailWidthsMatchReferenceClosely)
{
    // Widths that exercise every lane-tail remainder (w mod 8 = 0..7)
    // including partial edge tiles. exp8's rounding may move pixels by
    // ULPs (~150 dB apart), never by visible amounts. The opaque copy
    // (world opacity 0.999) drives the 0.99 alpha clamp and the
    // transmittance floor on most pixels.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 500);
    GaussianModel opaque = m;
    for (size_t i = 0; i < opaque.size(); ++i)
        opaque.rawOpacity(i) = inverseSigmoid(0.999f);
    for (int w : {96, 97, 98, 99, 100, 101, 102, 103}) {
        Camera cam = generateCameraPath(spec, 2, w, 61)[0];
        KernelAndReference r(m, cam);
        EXPECT_GT(r.kernel.image.psnr(r.reference), 100.0) << "w=" << w;
        KernelAndReference o(opaque, cam);
        EXPECT_GT(o.kernel.image.psnr(o.reference), 100.0)
            << "opaque w=" << w;
    }
}

TEST(SimdCompositor, ParallelBitwiseIdenticalToSerial)
{
    // The SIMD path must preserve the pipeline's determinism guarantee:
    // parallel and serial runs produce bit-identical images (odd
    // resolution: partial tiles + lane tails).
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 700);
    auto cams = generateCameraPath(spec, 2, 97, 61);
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        RenderConfig serial;
        serial.parallel = false;
        RenderConfig parallel;
        parallel.parallel = true;
        RenderOutput a = renderForward(m, cam, subset, serial);
        RenderOutput b = renderForward(m, cam, subset, parallel);
        EXPECT_EQ(a.image.data(), b.image.data());    // bitwise
        EXPECT_EQ(a.final_t, b.final_t);
        EXPECT_EQ(a.n_contrib, b.n_contrib);
    }
}

/** Smooth per-pixel loss weights w for L = sum(w . image). */
Image
smoothWeights(int width, int height)
{
    Image w(width, height);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            w.setPixel(x, y, {0.5f + 0.3f * std::sin(0.4f * x),
                              0.5f + 0.3f * std::cos(0.3f * y), 0.4f});
    return w;
}

TEST(SimdCompositor, BackwardGradientsMatchReferenceCentralDifferences)
{
    // The kernels' analytic gradients of L = sum(w . image) against
    // central differences of the reference renderer's L, on a seeded
    // sample of (row, parameter) pairs.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 400);
    Camera cam = generateCameraPath(spec, 2, 80, 60)[0];
    auto subset = frustumCull(m, cam);
    Rng rng(17);
    const Image weights = smoothWeights(80, 60);
    // The production alpha cut and early termination are steps; FD
    // across them measures the jump, not the gradient. Relaxed
    // thresholds keep the jumps negligible (same kernels either way).
    RenderConfig cfg;
    cfg.alpha_min = 1e-6f;
    cfg.transmittance_min = 1e-9f;
    RenderOutput out = renderForward(m, cam, subset, cfg);
    GaussianGrads g;
    g.resize(m.size());
    renderBackward(m, cam, cfg, out, weights, g);

    struct Param
    {
        const char *name;
        float h;
        float &(*value)(GaussianModel &, size_t);
        float (*grad)(const GaussianGrads &, size_t);
    };
    const Param params[] = {
        {"position.x", 1e-3f,
         [](GaussianModel &mm, size_t i) -> float & {
             return mm.position(i).x;
         },
         [](const GaussianGrads &gg, size_t i) {
             return gg.d_position[i].x;
         }},
        {"position.z", 1e-3f,
         [](GaussianModel &mm, size_t i) -> float & {
             return mm.position(i).z;
         },
         [](const GaussianGrads &gg, size_t i) {
             return gg.d_position[i].z;
         }},
        {"log_scale.y", 1e-2f,
         [](GaussianModel &mm, size_t i) -> float & {
             return mm.logScale(i).y;
         },
         [](const GaussianGrads &gg, size_t i) {
             return gg.d_log_scale[i].y;
         }},
        {"raw_opacity", 1e-2f,
         [](GaussianModel &mm, size_t i) -> float & {
             return mm.rawOpacity(i);
         },
         [](const GaussianGrads &gg, size_t i) {
             return gg.d_opacity[i];
         }},
        {"sh[0]", 1e-2f,
         [](GaussianModel &mm, size_t i) -> float & {
             return mm.sh(i)[0];
         },
         [](const GaussianGrads &gg, size_t i) {
             return gg.d_sh[i * kShDim];
         }},
    };

    // Steps, not gradients: a perturbation that moves the footprint's
    // 3-sigma tile rectangle or reorders it in depth. Pairs whose +-h
    // renders differ in either are skipped.
    std::vector<float> depths;
    for (uint32_t j : subset)
        depths.push_back(projectGaussian(m, j, cam, cfg.sh_degree).depth);
    auto footprint = [&](size_t i) {
        ProjectedGaussian p = projectGaussian(m, i, cam, cfg.sh_degree);
        const float ts = static_cast<float>(cfg.tile_size);
        size_t nearer = 0;
        for (size_t k = 0; k < subset.size(); ++k)
            if (subset[k] != i && depths[k] <= p.depth)
                ++nearer;
        return std::array<float, 6>{
            p.valid ? 1.0f : 0.0f,
            std::floor((p.mean2d.x - p.radius) / ts),
            std::floor((p.mean2d.x + p.radius) / ts),
            std::floor((p.mean2d.y - p.radius) / ts),
            std::floor((p.mean2d.y + p.radius) / ts),
            static_cast<float>(nearer)};
    };

    struct Pair
    {
        const char *name;
        size_t row;
        double analytic, fd;
    };
    std::vector<Pair> pairs;
    for (int attempt = 0; attempt < 400 && pairs.size() < 40; ++attempt) {
        const Param &prm = params[attempt % 5];
        const size_t i = subset[rng.uniformInt(0, subset.size() - 1)];
        float &v = prm.value(m, i);
        const float saved = v;
        const auto before = footprint(i);
        v = saved + prm.h;
        const float vp = v;
        const bool step = footprint(i) != before;
        const double lp = reference::loss(m, cam, subset, cfg, weights);
        v = saved - prm.h;
        const float vm = v;
        const bool step_m = footprint(i) != before;
        const double lm = reference::loss(m, cam, subset, cfg, weights);
        v = saved;
        if (step || step_m)
            continue;
        pairs.push_back({prm.name, i, prm.grad(g, i),
                         (lp - lm) / (double(vp) - double(vm))});
    }
    ASSERT_GE(pairs.size(), 30u);

    // Each pair within 10% or 1% of the sample's largest gradient (FD
    // noise and the 0.99-clamp kinks), and the sample as a whole
    // within 2% in L2.
    double g_max = 0, err2 = 0, fd2 = 0;
    for (const Pair &p : pairs)
        g_max = std::max(g_max, std::abs(p.analytic));
    for (const Pair &p : pairs) {
        const double diff = p.analytic - p.fd;
        EXPECT_LE(std::abs(diff),
                  0.1 * std::max(std::abs(p.analytic), std::abs(p.fd))
                      + 0.01 * g_max)
            << p.name << " row " << p.row << ": analytic " << p.analytic
            << " vs central difference " << p.fd;
        err2 += diff * diff;
        fd2 += p.fd * p.fd;
    }
    EXPECT_LE(std::sqrt(err2), 0.02 * std::sqrt(fd2));
}

TEST(SimdCompositor, ColorGradientsMatchReferenceUnderProductionThresholds)
{
    // L = sum(w . image) is linear in a Gaussian's DC color while alpha
    // stays fixed, so central differences of the reference are exact
    // here even with the production alpha cut, 0.99 clamp and early
    // termination: every sampled row's color gradient checks which
    // entries the backward replay composites and with what weight.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 400);
    Camera cam = generateCameraPath(spec, 2, 80, 60)[0];
    auto subset = frustumCull(m, cam);
    const Image weights = smoothWeights(80, 60);
    RenderConfig cfg;
    RenderOutput out = renderForward(m, cam, subset, cfg);
    GaussianGrads g;
    g.resize(m.size());
    renderBackward(m, cam, cfg, out, weights, g);

    // A wide step: L is linear in it, and the float rounding of the
    // reference's pixels stays far below the gradient it measures.
    Rng rng(19);
    const float h = 0.1f;
    for (int k = 0; k < 60; ++k) {
        const size_t i = subset[rng.uniformInt(0, subset.size() - 1)];
        const int c = k % 3;
        float &v = m.sh(i)[c];
        const float saved = v;
        v = saved + h;
        const float vp = v;
        const double lp = reference::loss(m, cam, subset, cfg, weights);
        v = saved - h;
        const float vm = v;
        const double lm = reference::loss(m, cam, subset, cfg, weights);
        v = saved;
        const double fd = (lp - lm) / (double(vp) - double(vm));
        const double an = g.d_sh[i * kShDim + c];
        EXPECT_NEAR(an, fd, 1e-5 + 1e-3 * std::abs(fd))
            << "row " << i << " sh[" << c << "]";
    }
}

TEST(SimdDispatch, ResolveBackendHonorsTokensAndSupport)
{
    const SimdBackend pref = simdPreferredBackend();
    EXPECT_TRUE(simdBackendSupported(pref));
    // No token: the CPUID-preferred backend.
    EXPECT_EQ(simdResolveBackend(nullptr, pref), pref);
    // Scalar is supported everywhere and always honored.
    EXPECT_EQ(simdResolveBackend("scalar", pref), SimdBackend::kScalar);
    // Any supported backend's own token resolves to itself.
    for (int b = 0; b < kNumSimdBackends; ++b) {
        const SimdBackend be = static_cast<SimdBackend>(b);
        if (simdBackendSupported(be))
            EXPECT_EQ(simdResolveBackend(simdBackendName(be), pref), be)
                << simdBackendName(be);
    }
    // Unknown tokens warn and keep the preferred choice.
    EXPECT_EQ(simdResolveBackend("banana", pref), pref);
    // The startup choice is supported and its kernel table exists and
    // self-identifies.
    const SimdBackend chosen = simdDispatchBackend();
    EXPECT_TRUE(simdBackendSupported(chosen));
    const RenderKernels &kern = renderKernels();
    EXPECT_EQ(kern.backend, chosen);
    EXPECT_STREQ(kern.name, simdBackendName(chosen));
    // Unsupported backends have no table; supported ones all do.
    for (int b = 0; b < kNumSimdBackends; ++b) {
        const SimdBackend be = static_cast<SimdBackend>(b);
        const RenderKernels *t = renderKernelsFor(be);
        EXPECT_EQ(t != nullptr, simdBackendSupported(be))
            << simdBackendName(be);
        if (t)
            EXPECT_EQ(t->backend, be);
    }
}

TEST(SimdDispatch, KernelTablesBitwiseIdenticalAcrossBackends)
{
    // THE dispatch-invariance guarantee: every backend's kernel table
    // runs the same IEEE op sequence, so forward images, activation
    // state, and backward gradients must match BIT FOR BIT across every
    // backend this CPU supports — on all five paper scenes (odd
    // resolution: partial tiles + lane tails).
    for (const SceneSpec &spec :
         {SceneSpec::bicycle(), SceneSpec::rubble(), SceneSpec::alameda(),
          SceneSpec::ithaca(), SceneSpec::bigCity()}) {
        GaussianModel m = generateGroundTruth(spec, 600);
        Camera cam = generateCameraPath(spec, 2, 97, 61)[0];
        auto subset = frustumCull(m, cam);
        Image d_image(97, 61, {0.3f, -0.2f, 0.1f});

        bool have_ref = false;
        RenderOutput ref_out;
        GaussianGrads ref_g;
        for (int b = 0; b < kNumSimdBackends; ++b) {
            const RenderKernels *kern =
                renderKernelsFor(static_cast<SimdBackend>(b));
            if (!kern)
                continue;
            RenderConfig cfg;
            cfg.kernels = kern;
            RenderOutput out = renderForward(m, cam, subset, cfg);
            GaussianGrads g;
            g.resize(m.size());
            renderBackward(m, cam, cfg, out, d_image, g);
            if (!have_ref) {
                ref_out = std::move(out);
                ref_g = std::move(g);
                have_ref = true;
                continue;
            }
            const char *name = kern->name;
            // Bitwise: float vectors compared as exact values.
            EXPECT_EQ(out.image.data(), ref_out.image.data())
                << spec.name << " image vs " << name;
            EXPECT_EQ(out.final_t, ref_out.final_t)
                << spec.name << " final_t vs " << name;
            EXPECT_EQ(out.n_contrib, ref_out.n_contrib)
                << spec.name << " n_contrib vs " << name;
            ASSERT_EQ(g.d_position.size(), ref_g.d_position.size());
            for (size_t i = 0; i < m.size(); ++i) {
                ASSERT_EQ(floatBits(g.d_position[i].x),
                          floatBits(ref_g.d_position[i].x))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_position[i].y),
                          floatBits(ref_g.d_position[i].y))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_opacity[i]),
                          floatBits(ref_g.d_opacity[i]))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_log_scale[i].z),
                          floatBits(ref_g.d_log_scale[i].z))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_sh[i * kShDim]),
                          floatBits(ref_g.d_sh[i * kShDim]))
                    << spec.name << " " << name << " row " << i;
            }
        }
        EXPECT_TRUE(have_ref);
    }
}

TEST(SimdCompositor, QualityHarnessPsnrDeltaUnder005Db)
{
    // The acceptance bound for the kernel compositor: rendering the same
    // trainee against the same ground truth, PSNR moves by less than
    // 0.05 dB between the kernels and the std::exp reference.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel gt_model = generateGroundTruth(spec, 1500);
    Camera cam = generateCameraPath(spec, 2, 160, 90)[0];
    Image target = reference::render(gt_model, cam,
                                     frustumCull(gt_model, cam),
                                     RenderConfig{});

    GaussianModel trainee = makeTrainee(gt_model, 1500, 3);
    KernelAndReference r(trainee, cam);
    double psnr_kernel = r.kernel.image.psnr(target);
    double psnr_reference = r.reference.psnr(target);
    EXPECT_LT(std::abs(psnr_kernel - psnr_reference), 0.05)
        << "kernels " << psnr_kernel << " dB vs reference "
        << psnr_reference << " dB";
}

} // namespace
} // namespace clm
