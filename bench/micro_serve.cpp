/**
 * @file
 * Serving micro-benchmark: requests/sec and p50/p99 latency of the
 * RenderService over city-scale synthetic models, swept across
 * coalescing batch sizes 1/2/4/8. max_batch=1 is view-at-a-time
 * serving (plain frustumCull + renderForward per request); larger
 * batches render through the fused multi-view pipeline, whose shared
 * per-Gaussian work (cull setup, covariance/opacity precompute, one
 * key-sorted buffer) is what batching amortizes. The workload is the
 * paper's serving setting: a large host-resident model with small
 * per-view sparsity, so per-request culling is a dominant cost.
 *
 * Before timing, each case verifies the fused batch path bitwise
 * against sequential renders (the images must be identical — batching
 * is a scheduling choice, never a quality choice).
 *
 * Load model: N closed-loop synthetic clients walk the scene's camera
 * path from staggered offsets, each keeping one request in flight, so
 * the queue stays deep enough for the service to coalesce full batches.
 *
 * A publish probe times SnapshotSlot::publish on the train-city
 * profile's 300k-Gaussian BigCity model and 16 views at 64x48. Each
 * publish changes the rows a training step's Adam would: it draws 16
 * view ids with replacement, as Trainer::trainSteps does, and changes
 * every row visible from any of them. publish_full_ms passes no changed
 * set (copy and hash every row), publish_incremental_ms passes the
 * changed rows (copy and rehash only those, plus the previous publish's
 * rows in the copy). The probe reports the mean share of rows changed
 * and the mean share of them that the previous publish also changed,
 * and checks every published snapshot is bitwise the model and carries
 * the full-model hash.
 *
 * Prints a table and emits BENCH_serve.json (scripts/bench_serve.sh)
 * with the machine/build context block.
 *
 * Usage: micro_serve [--smoke] [--out FILE.json]
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "math/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "render/batch.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "train/quality_harness.hpp"

using namespace clm;

namespace {

struct ServeCase
{
    std::string name;
    std::string scene;
    size_t n_gaussians;
    int width, height;
    int sh_degree;
    int clients;
    int requests;    //!< Per sweep point.
};

struct SweepPoint
{
    int max_batch = 1;
    double elapsed_s = 0;
    double rps = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double mean_batch = 0;
    /** SLO verdict over the point (obs/slo): closed-loop latency p99
     *  bound + queue-full shed ratio (must stay ~0 under Block). */
    SloReport slo;
};

/** Closed-loop SLO rules: with N clients each keeping one request in
 *  flight, end-to-end latency sits near N * per-view render time, so
 *  bound p99 at a 3x margin over that; and a closed-loop Block config
 *  must never shed. */
std::vector<SloRule>
makeServeSloRules(double direct_ms, int n_clients)
{
    std::vector<SloRule> rules(2);
    rules[0].kind = SloRuleKind::HistogramPercentile;
    rules[0].metric = "serve.latency_ms";
    rules[0].percentile = 99;
    rules[0].name = "latency_p99_ms";
    rules[0].warn = (2.0 * n_clients + 8.0) * direct_ms;
    rules[0].fail = 3.0 * rules[0].warn;
    rules[1].kind = SloRuleKind::CounterRatio;
    rules[1].metric = "serve.shed_queue_full";
    rules[1].denominator = "serve.requests";
    rules[1].name = "queue_shed_ratio";
    rules[1].warn = 0.01;
    rules[1].fail = 0.1;
    return rules;
}

struct CaseResult
{
    ServeCase cfg;
    size_t mean_subset = 0;
    int views = 0;
    double direct_ms_per_view = 0;    //!< No-service reference loop.
    bool bitwise_identical = false;
    std::vector<SweepPoint> sweep;
    // Traced rerun (batch 4, tracing enabled): observability must not
    // perturb determinism and should cost ~nothing on the hot path.
    double traced_rps = 0;
    double trace_overhead_frac = 0;    //!< (rps4 - traced_rps) / rps4.
    bool traced_bitwise_identical = false;

    double
    batch4Speedup() const
    {
        double rps1 = 0, rps4 = 0;
        for (const SweepPoint &p : sweep) {
            if (p.max_batch == 1)
                rps1 = p.rps;
            if (p.max_batch == 4)
                rps4 = p.rps;
        }
        return rps1 > 0 ? rps4 / rps1 : 0.0;
    }
};

/** Fused batch vs sequential renders: must be bitwise identical. */
bool
verifyBitIdentity(const GaussianModel &model,
                  const std::vector<Camera> &cams,
                  const RenderConfig &render)
{
    BatchCullScratch cull;
    std::vector<std::vector<uint32_t>> subsets;
    frustumCullBatch(model, cams, cull, subsets);
    BatchRenderArena arena;
    renderForwardBatch(model, cams, subsets, render, arena);
    RenderArena seq_arena;
    for (size_t v = 0; v < cams.size(); ++v) {
        auto subset = frustumCull(model, cams[v]);
        if (subset != subsets[v])
            return false;
        const RenderOutput &seq =
            renderForward(model, cams[v], subset, render, seq_arena);
        const RenderOutput &bat = arena.views[v].out;
        if (seq.image.data() != bat.image.data()
            || seq.final_t != bat.final_t
            || seq.n_contrib != bat.n_contrib)
            return false;
    }
    return true;
}

/** Drive one sweep point with closed-loop clients. */
SweepPoint
runSweepPoint(const SnapshotSlot &slot, const RenderConfig &render,
              const std::vector<Camera> &path, int max_batch,
              int n_clients, int n_requests,
              const std::vector<SloRule> &slo_rules)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = max_batch;
    cfg.render = render;
    MetricsRegistry registry;
    cfg.metrics = &registry;
    RenderService service(slot, cfg);
    SloMonitor slo(registry, slo_rules);

    std::atomic<int> budget{n_requests};
    Timer wall;
    std::vector<std::thread> clients;
    for (int c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            // Staggered start along the shared route.
            size_t pos = static_cast<size_t>(c) * path.size()
                       / static_cast<size_t>(n_clients);
            while (budget.fetch_sub(1) > 0) {
                service.submit(path[pos % path.size()]).get();
                ++pos;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    const double elapsed = wall.seconds();
    // Join the worker before reading stats: the last batch's futures
    // resolve before its counters are recorded, so a pre-stop read
    // could miss up to one batch of requests/latencies.
    service.stop();
    ServeStats stats = service.stats();

    SweepPoint p;
    p.max_batch = max_batch;
    p.elapsed_s = elapsed;
    p.rps = elapsed > 0 ? stats.requests / elapsed : 0.0;
    p.p50_ms = stats.p50_ms;
    p.p99_ms = stats.p99_ms;
    p.mean_batch = stats.mean_batch;
    p.slo = slo.total(elapsed);
    return p;
}

CaseResult
runCase(const ServeCase &c)
{
    SceneSpec spec = SceneSpec::byName(c.scene);
    GaussianModel model = generateSceneGaussians(spec, c.n_gaussians);
    const int n_views = 48;
    std::vector<Camera> path =
        generateCameraPath(spec, n_views, c.width, c.height);

    RenderConfig render;
    render.sh_degree = c.sh_degree;

    CaseResult r;
    r.cfg = c;
    r.views = n_views;

    // Reference: the direct per-view loop, no service in the way.
    RenderArena arena;
    size_t subset_sum = 0;
    {
        for (int v = 0; v < 4; ++v) {    // warm-up
            auto s = frustumCull(model, path[v]);
            renderForward(model, path[v], s, render, arena);
        }
        Timer t;
        const int reps = 8;
        for (int v = 0; v < reps; ++v) {
            auto s = frustumCull(model, path[v]);
            subset_sum += s.size();
            renderForward(model, path[v], s, render, arena);
        }
        r.direct_ms_per_view = t.millis() / reps;
        r.mean_subset = subset_sum / reps;
    }

    std::vector<Camera> probe(path.begin(), path.begin() + 4);
    r.bitwise_identical = verifyBitIdentity(model, probe, render);

    SnapshotSlot slot;
    slot.publish(model, 0);
    const std::vector<SloRule> slo_rules =
        makeServeSloRules(r.direct_ms_per_view, c.clients);
    for (int b : {1, 2, 4, 8})
        r.sweep.push_back(runSweepPoint(slot, render, path, b,
                                        c.clients, c.requests,
                                        slo_rules));

    // Traced rerun: enable the span tracer, re-verify bit-identity and
    // re-drive the batch-4 point. The untraced baseline is a FRESH
    // back-to-back point, not the sweep measurement above — machine
    // drift between the sweep and this comparison would otherwise
    // masquerade as tracing overhead. Acceptance: images stay bitwise
    // identical and throughput stays close to untraced (the overhead
    // fraction is reported, not gated — wall-clock noise on shared
    // runners would make a hard gate flaky; only a determinism
    // violation fails the bench).
    {
        // Best-of-5 on each side: a single ~1-2s closed-loop point has
        // several percent of scheduler noise, which would drown the
        // actual tracing cost (a handful of clock reads + ring writes
        // per request).
        double baseline_rps = 0, traced_rps = 0;
        for (int rep = 0; rep < 5; ++rep) {
            SweepPoint b = runSweepPoint(slot, render, path, 4,
                                         c.clients, c.requests,
                                         slo_rules);
            baseline_rps = std::max(baseline_rps, b.rps);
            Tracer::global().clear();
            Tracer::enable(&Tracer::global());
            if (rep == 0)
                r.traced_bitwise_identical =
                    verifyBitIdentity(model, probe, render);
            SweepPoint t = runSweepPoint(slot, render, path, 4,
                                         c.clients, c.requests,
                                         slo_rules);
            Tracer::enable(nullptr);
            traced_rps = std::max(traced_rps, t.rps);
        }
        r.traced_rps = traced_rps;
        r.trace_overhead_frac =
            baseline_rps > 0 ? (baseline_rps - traced_rps) / baseline_rps
                             : 0.0;
    }
    return r;
}

struct PublishResult
{
    size_t gaussians = 0;
    double changed_frac = 0;      //!< Mean share of rows changed.
    double retouch_frac = 0;      //!< Mean share of those the previous
                                  //!< publish changed too.
    double full_ms = 0;           //!< Median, no changed set.
    double incremental_ms = 0;    //!< Median, changed rows passed.
    bool exact = true;            //!< Every snapshot bitwise the model.
};

/** See the file comment. Each rep first changes (untimed) the rows of a
 *  fresh batch, as a training step would. */
PublishResult
runPublishProbe()
{
    constexpr size_t kGaussians = 300000;
    constexpr int kViews = 16;    // train-city: 16 views, 16 per batch
    constexpr int kReps = 7;
    PublishResult r;
    r.gaussians = kGaussians;
    // The train-city model and views (perfbench): a trainee grown from
    // a 3000-Gaussian ground truth, seen from 16 views at 64x48.
    SceneSpec spec = SceneSpec::bigCity();
    spec.train = {3000, kViews, 64, 48};
    GaussianModel model = makeTrainee(
        generateGroundTruth(spec, spec.train.n_gaussians), kGaussians,
        spec.seed);
    std::vector<std::vector<uint32_t>> visible;
    for (const Camera &view : trainCameras(spec))
        visible.push_back(frustumCull(model, view));

    Rng rng(2024);
    std::vector<uint8_t> in_prev(kGaussians), listed(kGaussians);
    std::vector<uint32_t> changed, prev;
    double changed_sum = 0, retouch_sum = 0;
    int batches = 0;
    auto next_batch = [&] {
        prev.swap(changed);
        changed.clear();
        for (int b = 0; b < kViews; ++b) {
            for (uint32_t i : visible[rng.uniformInt(0, kViews - 1)]) {
                if (!listed[i]) {
                    listed[i] = 1;
                    changed.push_back(i);
                }
            }
        }
        size_t retouched = 0;
        for (uint32_t i : prev)
            in_prev[i] = 1;
        for (uint32_t i : changed)
            retouched += in_prev[i];
        for (uint32_t i : prev)
            in_prev[i] = 0;
        for (uint32_t i : changed)
            listed[i] = 0;
        changed_sum += static_cast<double>(changed.size()) / kGaussians;
        retouch_sum += changed.empty()
            ? 0 : static_cast<double>(retouched) / changed.size();
        ++batches;
        // Write the whole row, as an Adam step does.
        for (uint32_t i : changed) {
            model.position(i).x += 1e-3f;
            model.logScale(i).y += 1e-3f;
            model.rotation(i).w += 1e-3f;
            for (int c = 0; c < kShDim; ++c)
                model.sh(i)[c] += 1e-3f;
            model.rawOpacity(i) += 1e-3f;
        }
    };

    SnapshotSlot slot;
    auto publish = [&](int rep, bool incremental) {
        next_batch();
        Timer t;
        slot.publish(model, rep, incremental ? &changed : nullptr);
        const double ms = t.millis();
        auto snap = slot.acquire();
        r.exact = r.exact && snap->model.bitwiseEquals(model)
                  && snap->param_hash == hashModelParams(model);
        return ms;
    };
    std::vector<double> full, incremental;
    for (int rep = 0; rep < kReps; ++rep)
        full.push_back(publish(rep, false));
    // Untimed: the first publish after a full one still copies every
    // row into the spare, which lags by rows no record lists.
    publish(kReps, true);
    for (int rep = 0; rep < kReps; ++rep)
        incremental.push_back(publish(kReps + 1 + rep, true));
    r.changed_frac = changed_sum / batches;
    r.retouch_frac = retouch_sum / batches;
    r.full_ms = EmpiricalCdf(full).percentile(50);
    r.incremental_ms = EmpiricalCdf(incremental).percentile(50);
    return r;
}

bool
anySweepBreached(const std::vector<CaseResult> &results)
{
    for (const CaseResult &r : results)
        for (const SweepPoint &p : r.sweep)
            if (p.slo.verdict == SloVerdict::Breached)
                return true;
    return false;
}

void
writeJson(const std::string &path, const std::vector<CaseResult> &results,
          const PublishResult &publish, bool smoke)
{
    std::ofstream f(path);
    f << "{\n  \"bench\": \"serve\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n";
    bench::writeJsonContext(f);
    f << "  \"slo_breached\": "
      << (anySweepBreached(results) ? "true" : "false") << ",\n";
    f << "  \"publish\": {\"gaussians\": " << publish.gaussians
      << ", \"changed_frac\": " << publish.changed_frac
      << ", \"retouch_frac\": " << publish.retouch_frac
      << ", \"publish_full_ms\": " << publish.full_ms
      << ", \"publish_incremental_ms\": " << publish.incremental_ms
      << ", \"bitwise_identical\": "
      << (publish.exact ? "true" : "false") << "},\n";
    f << "  \"cases\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const CaseResult &r = results[i];
        f << "    {\"name\": \"" << r.cfg.name << "\""
          << ", \"scene\": \"" << r.cfg.scene << "\""
          << ", \"gaussians\": " << r.cfg.n_gaussians
          << ", \"width\": " << r.cfg.width
          << ", \"height\": " << r.cfg.height
          << ", \"sh_degree\": " << r.cfg.sh_degree
          << ", \"views\": " << r.views
          << ", \"mean_subset\": " << r.mean_subset
          << ", \"clients\": " << r.cfg.clients
          << ", \"requests\": " << r.cfg.requests
          << ", \"direct_ms_per_view\": " << r.direct_ms_per_view
          << ", \"bitwise_identical\": "
          << (r.bitwise_identical ? "true" : "false")
          << ",\n     \"sweep\": [\n";
        for (size_t s = 0; s < r.sweep.size(); ++s) {
            const SweepPoint &p = r.sweep[s];
            f << "       {\"max_batch\": " << p.max_batch
              << ", \"rps\": " << p.rps
              << ", \"p50_ms\": " << p.p50_ms
              << ", \"p99_ms\": " << p.p99_ms
              << ", \"mean_batch\": " << p.mean_batch
              << ", \"elapsed_s\": " << p.elapsed_s
              << ", \"slo_verdict\": \""
              << sloVerdictName(p.slo.verdict) << "\"}"
              << (s + 1 < r.sweep.size() ? "," : "") << "\n";
        }
        f << "     ],\n     \"batch4_speedup\": " << r.batch4Speedup()
          << ",\n     \"traced_rps\": " << r.traced_rps
          << ", \"trace_overhead_frac\": " << r.trace_overhead_frac
          << ", \"traced_bitwise_identical\": "
          << (r.traced_bitwise_identical ? "true" : "false")
          << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else {
            std::cerr << "usage: micro_serve [--smoke] [--out FILE]\n";
            return 2;
        }
    }

    // City-scale serving ladder: big models, small per-view sparsity,
    // preview-sized frames — the regime where the per-request cull is a
    // dominant cost and batching pays (see file comment).
    std::vector<ServeCase> cases;
    if (smoke) {
        cases = {{"smoke", "BigCity", 20000, 96, 54, 1, 4, 24}};
    } else {
        cases = {{"small", "BigCity", 100000, 160, 90, 2, 16, 192},
                 {"medium", "BigCity", 300000, 192, 108, 2, 16, 160},
                 {"large", "BigCity", 600000, 256, 144, 2, 16, 96}};
    }

    std::cout << "=== micro_serve: concurrent serving throughput ===\n"
              << bench::contextLine() << " (1 serve worker)\n\n";
    Table table({"Case", "Gaussians", "WxH", "Subset", "Batch", "Req/s",
                 "p50 ms", "p99 ms", "MeanB", "vs b1"});
    std::vector<CaseResult> results;
    bool all_identical = true;
    for (const ServeCase &c : cases) {
        CaseResult r = runCase(c);
        all_identical = all_identical && r.bitwise_identical
                     && r.traced_bitwise_identical;
        double rps1 = 0;
        for (const SweepPoint &p : r.sweep) {
            if (p.max_batch == 1)
                rps1 = p.rps;
            table.addRow(
                {r.cfg.name, std::to_string(r.cfg.n_gaussians),
                 std::to_string(c.width) + "x" + std::to_string(c.height),
                 std::to_string(r.mean_subset),
                 std::to_string(p.max_batch), Table::fmt(p.rps, 1),
                 Table::fmt(p.p50_ms, 1), Table::fmt(p.p99_ms, 1),
                 Table::fmt(p.mean_batch, 2),
                 Table::fmt(rps1 > 0 ? p.rps / rps1 : 0.0, 2)});
        }
        std::cout << "[" << r.cfg.name << "] direct "
                  << Table::fmt(r.direct_ms_per_view, 2)
                  << " ms/view, batched images "
                  << (r.bitwise_identical ? "bit-identical"
                                          : "MISMATCH")
                  << " vs sequential\n";
        std::cout << "[" << r.cfg.name << "] traced rerun (batch 4): "
                  << Table::fmt(r.traced_rps, 1) << " req/s ("
                  << Table::fmt(r.trace_overhead_frac * 100.0, 1)
                  << "% overhead), images "
                  << (r.traced_bitwise_identical ? "bit-identical"
                                                 : "MISMATCH")
                  << "\n";
        for (const SweepPoint &p : r.sweep)
            std::cout << "[" << r.cfg.name << "] slo (batch "
                      << p.max_batch << "): " << p.slo.summary()
                      << "\n";
        results.push_back(r);
    }
    std::cout << "\n";
    table.print(std::cout);

    const PublishResult publish = runPublishProbe();
    std::cout << "\npublish (" << publish.gaussians << " Gaussians, "
              << Table::fmt(publish.changed_frac * 100.0, 0)
              << "% rows changed, "
              << Table::fmt(publish.retouch_frac * 100.0, 0)
              << "% of them also by the previous publish): full "
              << Table::fmt(publish.full_ms, 2) << " ms, incremental "
              << Table::fmt(publish.incremental_ms, 2) << " ms, snapshots "
              << (publish.exact ? "bit-identical" : "MISMATCH")
              << " to the model\n";
    all_identical = all_identical && publish.exact;

    writeJson(out_path, results, publish, smoke);
    std::cout << "\nwrote " << out_path << "\n";
    if (!all_identical) {
        std::cerr << "FAIL: batched or traced images differ from "
                     "sequential, or a snapshot differs from its model\n";
        return 1;
    }
    if (anySweepBreached(results)) {
        std::cerr << "FAIL: a sweep point breached its closed-loop "
                     "SLO (see slo lines above)\n";
        return 1;
    }
    return 0;
}
