/**
 * @file
 * Standalone timings of single layer entry points on a workload's own
 * model and cameras, plus the traced-run-only decision probes: the
 * GaussianBvh against the linear cull and a K=8 sharded replay against
 * unsharded serving.
 */

#include <future>
#include <random>

#include "bench.hpp"
#include "offload/planner.hpp"
#include "render/bvh.hpp"
#include "render/culling.hpp"
#include "sched/ordering.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "shard/sharded_snapshot.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace clm;

namespace {

/** A trivial 64-item fork-join on the global pool; returns its ms. */
double
poolRoundTripMs()
{
    std::atomic<size_t> sink{0};
    Timer t;
    ThreadPool::global().parallelFor(64, [&sink](size_t b, size_t e) {
        sink.fetch_add(e - b, std::memory_order_relaxed);
    });
    return t.millis();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

} // namespace

void
probeLayers(const Clm &session, const std::vector<Camera> &cameras,
            uint64_t seed, RunRecord &out)
{
    const GaussianModel &model = session.model();
    const size_t n = model.size();

    // Linear cull, one call per camera.
    std::vector<double> cull_ms;
    std::vector<std::vector<uint32_t>> sets;
    double visible = 0;
    for (const Camera &cam : cameras) {
        Timer t;
        {
            ScopedSpan span("bench.cull");
            sets.push_back(frustumCull(model, cam));
        }
        cull_ms.push_back(t.millis());
        visible += static_cast<double>(sets.back().size()) / n;
    }
    out.set("render.cull_ms", median(cull_ms), "ms");
    out.set("render.visible_frac", visible / cameras.size(), "ratio");

    // Planner and TSP ordering on seeded batches of the same views.
    const int batch = session.config().train.batch_size;
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<double> plan_ms, order_ms;
    int repeats = 0, batches = 0;
    for (int b = 0; b < 6; ++b) {
        BatchWorkload wl;
        for (int i = 0; i < batch; ++i) {
            const size_t v = rng() % cameras.size();
            wl.sets.push_back(sets[v]);
            wl.camera_centers.push_back(cameras[v].eye());
        }
        wl.n_synthetic = n;
        wl.n_target = static_cast<double>(n);
        wl.pixels_per_view = cameras[0].pixels();
        PlannerConfig pc = session.config().train.planner;
        pc.system = SystemKind::Clm;
        Timer tp;
        {
            ScopedSpan span("bench.plan");
            planBatch(pc, wl);
        }
        plan_ms.push_back(tp.millis());

        OrderingInputs in;
        in.sets = &wl.sets;
        in.camera_centers = &wl.camera_centers;
        in.seed = pc.seed;
        in.tsp = pc.tsp;
        Timer to;
        std::vector<int> first;
        {
            ScopedSpan span("bench.order");
            first = orderViews(OrderingStrategy::Tsp, wl.sets.size(), in);
        }
        order_ms.push_back(to.millis());
        // Same inputs, same seed: does the order repeat?
        repeats += orderViews(OrderingStrategy::Tsp, wl.sets.size(), in)
                   == first;
        ++batches;
    }
    out.set("offload.plan_ms", median(plan_ms), "ms");
    out.set("sched.order_ms", median(order_ms), "ms");
    out.set("sched.order_repeat_frac",
            static_cast<double>(repeats) / batches, "ratio");

    // Snapshot publish (copy + hash of the whole model).
    SnapshotSlot slot;
    std::vector<double> publish_ms;
    for (int r = 0; r < 3; ++r) {
        Timer t;
        ScopedSpan span("bench.publish");
        slot.publish(model, r);
        publish_ms.push_back(t.millis());
    }
    out.set("serve.publish_ms", median(publish_ms), "ms");

    // The pool with no other caller.
    std::vector<double> idle_ms;
    for (int r = 0; r < 200; ++r)
        idle_ms.push_back(poolRoundTripMs());
    out.set("util.pool_idle_ms.p50", median(idle_ms), "ms");
}

void
probeBvh(const GaussianModel &model, const std::vector<Camera> &cameras,
         RunRecord &out)
{
    Timer tb;
    GaussianBvh bvh(model);
    out.set("render.bvh_build_ms", tb.millis(), "ms");
    std::vector<double> cull_ms;
    bool identical = true;
    for (const Camera &cam : cameras) {
        Timer t;
        std::vector<uint32_t> got;
        {
            ScopedSpan span("bench.bvh_cull");
            got = bvh.cull(cam);
        }
        cull_ms.push_back(t.millis());
        identical = identical && got == frustumCull(model, cam);
    }
    out.set("render.bvh_cull_ms", median(cull_ms), "ms");
    std::vector<double> refit_ms;
    for (int r = 0; r < 3; ++r) {
        Timer t;
        bvh.refit(model);
        refit_ms.push_back(t.millis());
    }
    out.set("render.bvh_refit_ms", median(refit_ms), "ms");
    out.check("bvh_cull_matches_linear_cull", identical);
}

namespace {

/** Submit every camera at once (closed burst, FIFO) and collect. */
std::vector<RenderResponse>
replay(RenderService &service, const std::vector<Camera> &cameras)
{
    std::vector<std::future<RenderResponse>> futures;
    futures.reserve(cameras.size());
    for (const Camera &cam : cameras) {
        ScopedSpan span("bench.submit");
        futures.push_back(service.submit(cam));
    }
    std::vector<RenderResponse> out;
    for (auto &f : futures)
        out.push_back(f.get());
    return out;
}

/** Mean batch render time of a replay, each batch counted once. */
double
meanBatchRenderMs(const std::vector<RenderResponse> &responses)
{
    double sum = 0, batches = 0;
    for (const RenderResponse &r : responses) {
        const double share = r.batch_size > 0 ? 1.0 / r.batch_size : 1.0;
        sum += r.render_s * 1e3 * share;
        batches += share;
    }
    return batches > 0 ? sum / batches : 0;
}

} // namespace

void
probeShards(Clm &session, const std::vector<Camera> &cameras,
            Tracer &tracer, RunRecord &out)
{
    constexpr int kShards = 8;
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.queue_capacity = cameras.size() + 1;
    cfg.render = session.config().train.render;

    std::vector<RenderResponse> plain;
    {
        RenderService service(session.snapshots(), cfg);
        plain = replay(service, cameras);
    }

    ShardedSnapshotSlot slot(kShards);
    Timer tp;
    slot.publish(session.snapshots().acquire());
    out.set("shard.publish_ms", tp.millis(), "ms");

    tracer.clear();
    Tracer::enable(&tracer);
    std::vector<RenderResponse> sharded;
    {
        RenderService service(slot, cfg);
        sharded = replay(service, cameras);
    }
    Tracer::enable(nullptr);
    // Coalesced batches route inside the composed pipeline (shard.route);
    // single requests route in the service (serve.route).
    const Ledger ledger = buildLedger(tracer.snapshotSpans());
    const double route_ms = spanMeanMs(ledger, "shard.route");
    out.set("shard.route_ms",
            route_ms > 0 ? route_ms : spanMeanMs(ledger, "serve.route"),
            "ms");

    bool identical = plain.size() == sharded.size();
    double pruned = 0;
    size_t ok = 0;
    for (size_t i = 0; identical && i < plain.size(); ++i) {
        identical = plain[i].ok() && sharded[i].ok()
                    && plain[i].image.data() == sharded[i].image.data();
        if (sharded[i].shards_total > 0) {
            pruned += 1.0
                      - static_cast<double>(sharded[i].shards_selected)
                            / sharded[i].shards_total;
            ++ok;
        }
    }
    out.check("sharded_frames_match_unsharded", identical);
    const double shard_ms = meanBatchRenderMs(sharded);
    const double plain_ms = meanBatchRenderMs(plain);
    out.set("shard.render_ms", shard_ms, "ms");
    out.set("shard.unsharded_render_ms", plain_ms, "ms");
    out.set("shard.speedup", shard_ms > 0 ? plain_ms / shard_ms : 0,
            "ratio");
    out.set("shard.pruned_frac", ok ? pruned / ok : 0, "ratio");
}

PoolProbe::PoolProbe(double interval_s)
    : thread_([this, interval_s] { loop(interval_s); })
{
}

PoolProbe::~PoolProbe()
{
    stop();
}

void
PoolProbe::loop(double interval_s)
{
    const double t0 = nowS();
    for (int k = 1; !stop_.load(); ++k) {
        samples_ms_.push_back(poolRoundTripMs());
        const double due = t0 + k * interval_s;
        const double wait = due - nowS();
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
}

std::vector<double>
PoolProbe::stop()
{
    stop_ = true;
    if (thread_.joinable())
        thread_.join();
    return samples_ms_;
}

} // namespace perfbench
