/**
 * @file
 * Tests for the Gaussian parameter store, the attribute-wise split, the
 * subset-capable CPU Adam and adaptive densification.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "gaussian/adam.hpp"
#include "gaussian/densify.hpp"
#include "gaussian/model.hpp"
#include "math/rng.hpp"

namespace clm {
namespace {

GaussianModel
randomModel(size_t n, uint64_t seed)
{
    Rng rng(seed);
    GaussianModel m = GaussianModel::random(n, {-5, -5, -5}, {5, 5, 5},
                                            0.1f, rng);
    for (size_t i = 0; i < n; ++i) {
        m.rotation(i) = Quat{rng.normal(), rng.normal(), rng.normal(),
                             rng.normal()};
        if (m.rotation(i).norm() < 1e-3f)
            m.rotation(i) = Quat{1, 0, 0, 0};
        for (int k = 0; k < kShDim; ++k)
            m.sh(i)[k] = rng.normal(0.0f, 0.3f);
    }
    return m;
}

GaussianGrads
randomGrads(size_t n, uint64_t seed)
{
    Rng rng(seed);
    GaussianGrads g;
    g.resize(n);
    for (size_t i = 0; i < n; ++i) {
        g.d_position[i] = rng.normal3({0, 0, 0}, 1.0f);
        g.d_log_scale[i] = rng.normal3({0, 0, 0}, 1.0f);
        g.d_rotation[i] = Quat{rng.normal(), rng.normal(), rng.normal(),
                               rng.normal()};
        g.d_opacity[i] = rng.normal();
        for (int k = 0; k < kShDim; ++k)
            g.d_sh[i * kShDim + k] = rng.normal();
    }
    return g;
}

TEST(Attributes, LayoutConstants)
{
    EXPECT_EQ(kParamsPerGaussian, 59);
    EXPECT_EQ(kCriticalDim, 10);
    EXPECT_EQ(kNonCriticalDim, 49);
    EXPECT_EQ(kModelStateBytesPerGaussian, 59u * 4u * 4u);
    EXPECT_EQ(kPaddedNonCriticalBytes % kCacheLineBytes, 0u);
    // Critical fraction is under 20% of the footprint (§4.1).
    EXPECT_LT(double(kCriticalDim) / kParamsPerGaussian, 0.20);
}

TEST(GaussianModel, PackUnpackCriticalRoundTrip)
{
    GaussianModel m = randomModel(8, 1);
    float rec[kCriticalDim];
    m.packCritical(3, rec);
    GaussianModel m2(8);
    m2.unpackCritical(3, rec);
    EXPECT_FLOAT_EQ(m2.position(3).x, m.position(3).x);
    EXPECT_FLOAT_EQ(m2.logScale(3).z, m.logScale(3).z);
    EXPECT_FLOAT_EQ(m2.rotation(3).w, m.rotation(3).w);
    EXPECT_FLOAT_EQ(m2.rotation(3).z, m.rotation(3).z);
}

TEST(GaussianModel, PackUnpackNonCriticalRoundTrip)
{
    GaussianModel m = randomModel(8, 2);
    float rec[kNonCriticalDim];
    m.packNonCritical(5, rec);
    GaussianModel m2(8);
    m2.unpackNonCritical(5, rec);
    for (int k = 0; k < kShDim; ++k)
        EXPECT_FLOAT_EQ(m2.sh(5)[k], m.sh(5)[k]);
    EXPECT_FLOAT_EQ(m2.rawOpacity(5), m.rawOpacity(5));
}

TEST(GaussianModel, ActivationsApplied)
{
    GaussianModel m(1);
    m.logScale(0) = {0.0f, std::log(2.0f), std::log(0.5f)};
    m.rawOpacity(0) = 0.0f;
    Vec3 ws = m.worldScale(0);
    EXPECT_NEAR(ws.x, 1.0f, 1e-6f);
    EXPECT_NEAR(ws.y, 2.0f, 1e-6f);
    EXPECT_NEAR(ws.z, 0.5f, 1e-6f);
    EXPECT_NEAR(m.worldOpacity(0), 0.5f, 1e-6f);
    EXPECT_NEAR(inverseSigmoid(0.1f), -2.19722f, 1e-4f);
}

TEST(GaussianModel, CovarianceIsSymmetricPsd)
{
    GaussianModel m = randomModel(20, 3);
    for (size_t i = 0; i < m.size(); ++i) {
        Mat3 cov = m.covariance(i);
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                EXPECT_NEAR(cov.m[a][b], cov.m[b][a], 1e-4f);
        // Diagonal entries of a PSD matrix are non-negative; determinant
        // of R S^2 R^T equals det(S^2) > 0.
        for (int a = 0; a < 3; ++a)
            EXPECT_GE(cov.m[a][a], 0.0f);
        EXPECT_GT(cov.det(), 0.0f);
    }
}

TEST(GaussianModel, RemoveRowsKeepsOrder)
{
    GaussianModel m = randomModel(10, 4);
    Vec3 keep2 = m.position(2);
    Vec3 keep9 = m.position(9);
    m.removeRows({0, 5, 7});
    EXPECT_EQ(m.size(), 7u);
    EXPECT_FLOAT_EQ(m.position(1).x, keep2.x);    // 2 shifted to 1
    EXPECT_FLOAT_EQ(m.position(6).x, keep9.x);    // 9 shifted to 6
}

TEST(GaussianModel, AppendGrows)
{
    GaussianModel m(2);
    float sh[kShDim] = {1.5f};
    size_t idx = m.append({1, 2, 3}, {0, 0, 0}, {1, 0, 0, 0}, sh, 0.25f);
    EXPECT_EQ(idx, 2u);
    EXPECT_EQ(m.size(), 3u);
    EXPECT_FLOAT_EQ(m.sh(2)[0], 1.5f);
    EXPECT_FLOAT_EQ(m.rawOpacity(2), 0.25f);
}

TEST(GaussianGrads, AccumulateRowsMatchesFull)
{
    size_t n = 16;
    GaussianGrads a = randomGrads(n, 5);
    GaussianGrads b = randomGrads(n, 6);
    GaussianGrads full = a;
    full.accumulate(b);

    GaussianGrads partial = a;
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    partial.accumulateRows(b, all);

    for (size_t i = 0; i < n; ++i) {
        EXPECT_FLOAT_EQ(partial.d_position[i].x, full.d_position[i].x);
        EXPECT_FLOAT_EQ(partial.d_sh[i * kShDim + 7],
                        full.d_sh[i * kShDim + 7]);
        EXPECT_FLOAT_EQ(partial.d_opacity[i], full.d_opacity[i]);
    }
}

TEST(GaussianGrads, ZeroRowsOnlyTouchesListed)
{
    GaussianGrads g = randomGrads(4, 7);
    float keep = g.d_opacity[1];
    g.zeroRows({0, 2});
    EXPECT_FLOAT_EQ(g.d_position[0].x, 0.0f);
    EXPECT_FLOAT_EQ(g.d_sh[2 * kShDim + 3], 0.0f);
    EXPECT_FLOAT_EQ(g.d_opacity[1], keep);
}

/** Reference scalar Adam for cross-checking. */
void
refAdam(float &p, float g, float &m, float &v, float lr, int t,
        const AdamConfig &c)
{
    m = c.beta1 * m + (1 - c.beta1) * g;
    v = c.beta2 * v + (1 - c.beta2) * g * g;
    float mh = m / (1 - std::pow(c.beta1, float(t)));
    float vh = v / (1 - std::pow(c.beta2, float(t)));
    p -= lr * mh / (std::sqrt(vh) + c.epsilon);
}

TEST(CpuAdam, MatchesReferenceScalarAdam)
{
    GaussianModel m = randomModel(3, 8);
    float p0 = m.position(1).x;
    CpuAdam adam;
    adam.reset(3);
    GaussianGrads g = randomGrads(3, 9);

    float rp = p0, rm = 0, rv = 0;
    for (int t = 1; t <= 5; ++t) {
        adam.update(m, g);
        refAdam(rp, g.d_position[1].x, rm, rv,
                adam.config().lr_position, t, adam.config());
    }
    EXPECT_NEAR(m.position(1).x, rp, 1e-5f);
}

TEST(CpuAdam, SubsetUpdateOnlyTouchesSubset)
{
    GaussianModel m = randomModel(6, 10);
    GaussianModel before = m;
    CpuAdam adam;
    adam.reset(6);
    GaussianGrads g = randomGrads(6, 11);
    adam.updateSubset(m, g, {1, 4});

    for (size_t i : {0u, 2u, 3u, 5u}) {
        EXPECT_FLOAT_EQ(m.position(i).x, before.position(i).x);
        EXPECT_FLOAT_EQ(m.rawOpacity(i), before.rawOpacity(i));
    }
    EXPECT_NE(m.position(1).x, before.position(1).x);
    EXPECT_NE(m.position(4).x, before.position(4).x);
    EXPECT_EQ(adam.stepCount(1), 1u);
    EXPECT_EQ(adam.stepCount(0), 0u);
}

TEST(CpuAdam, ChangedRowRecordListsUpdatedRowsOnce)
{
    GaussianModel m = randomModel(8, 30);
    CpuAdam adam;
    adam.reset(8);
    GaussianGrads g = randomGrads(8, 31);
    std::vector<uint32_t> rows{99};    // stale contents get replaced

    // reset() leaves the record unknown: every row may have changed.
    EXPECT_FALSE(adam.takeChangedRows(rows));
    EXPECT_TRUE(rows.empty());

    // Overlapping subsets: each updated row is listed exactly once, in
    // first-update order.
    adam.updateSubset(m, g, {5, 1});
    adam.updateSubset(m, g, {1, 6, 5, 2});
    ASSERT_TRUE(adam.takeChangedRows(rows));
    EXPECT_EQ(rows, (std::vector<uint32_t>{5, 1, 6, 2}));

    // Taking the record clears it.
    EXPECT_TRUE(adam.takeChangedRows(rows));
    EXPECT_TRUE(rows.empty());
    adam.updateSubset(m, g, {1});
    ASSERT_TRUE(adam.takeChangedRows(rows));
    EXPECT_EQ(rows, (std::vector<uint32_t>{1}));

    // update() marks every row (the record becomes unknown) and a
    // following take starts a fresh, known record.
    adam.updateSubset(m, g, {3});
    adam.update(m, g);
    EXPECT_FALSE(adam.takeChangedRows(rows));
    EXPECT_TRUE(rows.empty());
    adam.updateSubset(m, g, {3});
    ASSERT_TRUE(adam.takeChangedRows(rows));
    EXPECT_EQ(rows, (std::vector<uint32_t>{3}));

    // reset() (densify) makes it unknown again, even mid-record.
    adam.updateSubset(m, g, {4});
    adam.reset(8);
    EXPECT_FALSE(adam.takeChangedRows(rows));
    adam.updateSubset(m, g, {4});
    ASSERT_TRUE(adam.takeChangedRows(rows));
    EXPECT_EQ(rows, (std::vector<uint32_t>{4}));
}

TEST(CpuAdam, EarlySubsetUpdateEqualsBatchEndUpdate)
{
    // The §4.2.2 safety property: updating a finalized Gaussian early
    // gives the identical result to updating it at batch end, because
    // per-Gaussian step counters drive bias correction.
    GaussianModel m1 = randomModel(4, 12);
    GaussianModel m2 = m1;
    CpuAdam a1, a2;
    a1.reset(4);
    a2.reset(4);
    GaussianGrads g = randomGrads(4, 13);

    // a1: update {0,1} "early", then {2,3} "later".
    a1.updateSubset(m1, g, {0, 1});
    a1.updateSubset(m1, g, {2, 3});
    // a2: one batch-end update of everything.
    a2.update(m2, g);

    for (size_t i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(m1.position(i).x, m2.position(i).x);
        EXPECT_FLOAT_EQ(m1.logScale(i).y, m2.logScale(i).y);
        EXPECT_FLOAT_EQ(m1.rawOpacity(i), m2.rawOpacity(i));
        EXPECT_FLOAT_EQ(m1.sh(i)[10], m2.sh(i)[10]);
    }
}

TEST(CpuAdam, StateBytesMatchPaperEstimate)
{
    CpuAdam adam;
    adam.reset(1000);
    // Two moments per parameter = half of the 4-values-per-param total.
    EXPECT_EQ(adam.stateBytes(), 1000u * 59u * 2u * sizeof(float));
}

TEST(Densifier, PrunesTransparent)
{
    GaussianModel m = randomModel(10, 14);
    for (size_t i = 0; i < 3; ++i)
        m.rawOpacity(i) = inverseSigmoid(0.001f);    // below threshold
    CpuAdam adam;
    adam.reset(10);
    Densifier d;
    d.reset(10);
    Rng rng(1);
    DensifyStats stats = d.densify(m, adam, rng);
    EXPECT_EQ(stats.pruned, 3u);
    EXPECT_EQ(m.size(), 7u);
    EXPECT_EQ(adam.size(), 7u);
}

TEST(Densifier, ClonesHighGradientSmallGaussians)
{
    GaussianModel m = randomModel(4, 15);
    for (size_t i = 0; i < 4; ++i) {
        m.rawOpacity(i) = inverseSigmoid(0.8f);
        m.logScale(i) = {-5, -5, -5};    // tiny -> clone, not split
    }
    Densifier d;
    d.reset(4);
    GaussianGrads g;
    g.resize(4);
    g.d_position[2] = {1.0f, 0, 0};    // only #2 above threshold
    d.observe(g);
    CpuAdam adam;
    adam.reset(4);
    Rng rng(2);
    DensifyStats stats = d.densify(m, adam, rng);
    EXPECT_EQ(stats.cloned, 1u);
    EXPECT_EQ(stats.split, 0u);
    EXPECT_EQ(m.size(), 5u);
}

TEST(Densifier, SplitsLargeGaussiansAndRemovesParent)
{
    GaussianModel m = randomModel(4, 16);
    for (size_t i = 0; i < 4; ++i)
        m.rawOpacity(i) = inverseSigmoid(0.8f);
    m.logScale(1) = {2.0f, 2.0f, 2.0f};    // huge -> split
    Densifier d;
    d.reset(4);
    GaussianGrads g;
    g.resize(4);
    g.d_position[1] = {1.0f, 0, 0};
    d.observe(g);
    CpuAdam adam;
    adam.reset(4);
    Rng rng(3);
    DensifyStats stats = d.densify(m, adam, rng);
    EXPECT_EQ(stats.split, 1u);
    // 4 - 1 parent + 2 children = 5.
    EXPECT_EQ(m.size(), 5u);
}

TEST(Densifier, RespectsMaxGaussiansCap)
{
    DensifyConfig cfg;
    cfg.max_gaussians = 4;
    Densifier d(cfg);
    GaussianModel m = randomModel(4, 17);
    for (size_t i = 0; i < 4; ++i)
        m.rawOpacity(i) = inverseSigmoid(0.8f);
    d.reset(4);
    GaussianGrads g;
    g.resize(4);
    for (size_t i = 0; i < 4; ++i)
        g.d_position[i] = {1.0f, 0, 0};
    d.observe(g);
    CpuAdam adam;
    adam.reset(4);
    Rng rng(4);
    d.densify(m, adam, rng);
    EXPECT_LE(m.size(), 4u);
}

} // namespace
} // namespace clm
