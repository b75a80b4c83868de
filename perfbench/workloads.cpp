/**
 * @file
 * The workloads of the end-to-end benchmark (see README.md for why each
 * exists and what each metric means):
 *
 *  - train-city: CLM training on BigCity, 300k Gaussians, 16-view
 *    batches at 64x48 — sparse views, offload/sched/publish heavy.
 *  - train-dense: CLM training on Bicycle, 30k Gaussians, 4-view
 *    batches at 192x108 — dense views, render-kernel heavy.
 *
 * Each run has two phases on one session: training alone, then serving
 * while training continues on a background thread (an open-loop
 * Poisson generator sends view requests to a RenderService and a
 * collector resolves them).
 *
 * Untraced runs report the end-to-end metrics. A traced run (--trace 1)
 * reports the per-layer ledger instead: stage timings, tracer spans
 * (with the benchmark's own bench.* spans around each call it makes
 * into a layer), standalone probes of single entry points, and the
 * repeat audit.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "gaussian/attributes.hpp"
#include "offload/cache_planner.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "train/clm_trainer.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace clm;

bool
RunRecord::correct() const
{
    for (const auto &c : checks)
        if (!c.second)
            return false;
    return true;
}

double
nowS()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - epoch)
        .count();
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q / 100.0 * (values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    if (std::isinf(values[hi]))
        return pos == lo ? values[lo] : values[hi];
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

namespace {

/** The fixed serving rate of the latency metrics (requests/s): 30 on
 *  train-city, 5 on train-dense. While training shares its CPU, the
 *  dense service sustains about 15 req/s and the city service about 60,
 *  so both rates sit near a third of capacity. */
double
fixedRate(const Options &opt)
{
    return opt.workload == "train-dense" ? 5 : 30;
}

/** Length of the fixed-rate window: --seconds, stretched so that it
 *  holds at least 100 requests (p90 then has 10 beyond it). */
double
fixedWindowS(const Options &opt)
{
    return std::max(opt.seconds, 100 / fixedRate(opt));
}

/** Tail percentile of the latency metrics; serve.max_rps limits it. */
constexpr double kTailPct = 90;
constexpr double kLatencyLimitMs = 250;
/** Rungs of the serve.max_rps ladder as multiples of the fixed rate
 *  (10/20/30/40/50/60 req/s at 30 req/s); the fixed rate is one. */
constexpr double kLadder[] = {1.0 / 3, 2.0 / 3, 1, 4.0 / 3, 5.0 / 3, 2};
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** train.psnr_db is taken after this many training steps of the
 *  window (training continues untimed if the window ends sooner), so
 *  quality does not depend on how fast the host ran. */
int
psnrSteps(const Options &opt)
{
    return opt.workload == "train-dense" ? 24 : 8;
}
/** Training batches compared by the repeat audit. */
constexpr int kAuditSteps = 2;
/** Requests re-served after training stops and compared bitwise. */
constexpr int kBitwiseSample = 8;
/** Serving: one worker coalescing up to 4 requests, a bounded queue
 *  that sheds (Reject) instead of blocking the generator. */
constexpr int kMaxBatch = 4;
constexpr size_t kQueueCapacity = 64;

ClmConfig
workloadConfig(const Options &opt)
{
    ClmConfig c;
    if (opt.workload == "train-dense") {
        c.scene = SceneSpec::bicycle();
        c.scene.train.width = 192;
        c.scene.train.height = 108;
        c.model_size = 30000;
    } else {
        // The clm_cli profile on BigCity.
        c.scene = SceneSpec::bigCity();
        c.scene.train = {3000, 16, 64, 48};
        c.model_size = 300000;
    }
    c.scene.seed = opt.seed;
    c.train.seed = opt.seed;
    c.train.render.sh_degree = 1;
    c.train.loss.ssim_window = 5;
    c.system = SystemKind::Clm;
    return c;
}

/** Cameras of the serving requests: the training path's shape, four
 *  times denser. */
std::vector<Camera>
requestPath(const ClmConfig &c)
{
    SceneSpec spec = c.scene;
    return generateCameraPath(spec, 4 * spec.train.n_views,
                              spec.train.width, spec.train.height);
}

uint64_t
hashOrder(const std::vector<int> &order)
{
    uint64_t h = 1469598103934665603ull;
    for (int v : order) {
        h ^= static_cast<uint64_t>(v) + 1;
        h *= 1099511628211ull;
    }
    return h;
}

struct Step
{
    double t_end = 0;     //!< nowS() when the step returned.
    double wall_s = 0;
    BatchStats stats;
    uint64_t order_hash = 0;
    int views = 0;
};

Step
trainStep(Clm &session)
{
    Step s;
    Timer t;
    {
        ScopedSpan span("bench.train_step");
        s.stats = session.train(1).at(0);
    }
    s.wall_s = t.seconds();
    s.t_end = nowS();
    s.views = session.config().train.batch_size;
    if (const auto *ct =
            dynamic_cast<const ClmTrainer *>(&session.trainer()))
        s.order_hash = hashOrder(ct->lastPlan().order);
    return s;
}

/** Training views per second of a typical step: views per step over
 *  the median wall time of the steps that ended inside [t0, t1]. The
 *  median keeps a burst of host preemption from moving the figure. */
double
viewsPerSecond(const std::vector<Step> &steps, double t0, double t1)
{
    std::vector<double> wall;
    int views = 0;
    for (const Step &s : steps)
        if (s.t_end >= t0 && s.t_end <= t1) {
            wall.push_back(s.wall_s);
            views = s.views;
        }
    const double median = percentile(wall, 50);
    return median > 0 ? views / median : 0;
}

bool
allLossesFinite(const std::vector<Step> &steps)
{
    for (const Step &s : steps)
        if (!std::isfinite(s.stats.loss))
            return false;
    return true;
}

std::string
stepsJson(const char *key, const std::vector<Step> &steps)
{
    std::ostringstream os;
    os << "\"" << key << "\": [";
    for (size_t i = 0; i < steps.size(); ++i) {
        const Step &s = steps[i];
        os << (i ? ", " : "") << "{\"order_hash\": \"" << std::hex
           << s.order_hash << std::dec
           << "\", \"h2d_bytes\": " << s.stats.h2d_bytes
           << ", \"cache_hits\": " << s.stats.cache_hits
           << ", \"rendered\": " << s.stats.gaussians_rendered << "}";
    }
    os << "]";
    return os.str();
}

std::string
stepTimesJson(const std::vector<Step> &steps)
{
    std::ostringstream os;
    os << "\"step_ms\": [";
    for (size_t i = 0; i < steps.size(); ++i)
        os << (i ? ", " : "") << steps[i].wall_s * 1e3;
    os << "]";
    return os.str();
}

// ---------------------------------------------------------------------------
// Open-loop serving

struct Outcome
{
    double due = 0;          //!< Scheduled send time (s from phase start).
    double sent = 0;
    double resolved = 0;
    ServeStatus status = ServeStatus::Ok;
    double queue_ms = 0;
    double render_ms = 0;
    int batch_size = 0;
    double lag = 0;          //!< Publishes between render and resolution.
    size_t camera = 0;       //!< Index into the request path.

    double latencyMs() const
    {
        return status == ServeStatus::Ok
                   ? (resolved - due) * 1e3
                   : std::numeric_limits<double>::infinity();
    }
};

struct Phase
{
    double rate = 0;
    double duration = 0;
    double t0 = 0;
    std::vector<Outcome> outcomes;
    /** (send time, requests sent but not yet resolved). */
    std::vector<std::pair<double, double>> backlog;

    std::vector<double> latenciesMs() const
    {
        std::vector<double> v;
        for (const Outcome &o : outcomes)
            v.push_back(o.latencyMs());
        return v;
    }
    size_t okCount() const
    {
        size_t n = 0;
        for (const Outcome &o : outcomes)
            n += o.status == ServeStatus::Ok;
        return n;
    }
    double failedFrac() const
    {
        return outcomes.empty()
                   ? 0
                   : 1.0 - static_cast<double>(okCount()) / outcomes.size();
    }
    /** Backlog in the last quarter of the phase exceeds the first
     *  quarter's by more than two full batches. */
    bool backlogGrowing() const
    {
        double head = 0, tail = 0;
        int nh = 0, nt = 0;
        for (const auto &b : backlog) {
            if (b.first < duration / 4) {
                head += b.second;
                ++nh;
            } else if (b.first >= duration * 3 / 4) {
                tail += b.second;
                ++nt;
            }
        }
        if (nh == 0 || nt == 0)
            return false;
        return tail / nt - head / nh > 2 * kMaxBatch;
    }
    bool meetsLimit() const
    {
        return !outcomes.empty()
               && percentile(latenciesMs(), kTailPct) <= kLatencyLimitMs
               && failedFrac() <= 0.01 && !backlogGrowing();
    }
};

/** Poisson arrivals at @p rate for @p duration seconds, each aimed at
 *  a seeded camera of @p path; requests are timed from when they were
 *  due. The calling thread is the generator; one collector thread
 *  resolves the futures in submission order. */
Phase
runPhase(RenderService &service, const SnapshotSlot &slot,
         const std::vector<Camera> &path, double rate, double duration,
         uint64_t seed)
{
    Phase ph;
    ph.rate = rate;
    ph.duration = duration;
    std::mt19937_64 rng(seed);
    for (double t = 0;;) {
        const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) / rate;
        if (t >= duration)
            break;
        Outcome o;
        o.due = t;
        o.camera = static_cast<size_t>(rng() % path.size());
        ph.outcomes.push_back(o);
    }

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::future<RenderResponse>>> pending;
    bool done = false;
    std::atomic<size_t> resolved{0};
    std::thread collector([&] {
        while (true) {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return done || !pending.empty(); });
            if (pending.empty())
                return;
            auto item = std::move(pending.front());
            pending.pop_front();
            lock.unlock();
            RenderResponse r;
            {
                ScopedSpan span("bench.resolve");
                r = item.second.get();
            }
            Outcome &o = ph.outcomes[item.first];
            o.resolved = nowS() - ph.t0;
            o.status = r.status;
            o.queue_ms = r.queue_s * 1e3;
            o.render_ms = r.render_s * 1e3;
            o.batch_size = r.batch_size;
            if (r.ok())
                o.lag = static_cast<double>(slot.version()
                                            - r.snapshot_version);
            resolved.fetch_add(1);
        }
    });

    ph.t0 = nowS();
    for (size_t k = 0; k < ph.outcomes.size(); ++k) {
        Outcome &o = ph.outcomes[k];
        const double wait = ph.t0 + o.due - nowS();
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        o.sent = nowS() - ph.t0;
        std::future<RenderResponse> f;
        {
            ScopedSpan span("bench.submit");
            f = service.submit(path[o.camera]);
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            pending.emplace_back(k, std::move(f));
        }
        cv.notify_one();
        ph.backlog.emplace_back(o.sent,
                                static_cast<double>(k + 1 - resolved.load()));
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
    }
    cv.notify_one();
    collector.join();
    return ph;
}

ServeConfig
serveConfig(const Clm &session)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = kMaxBatch;
    cfg.queue_capacity = kQueueCapacity;
    cfg.admission.shed = ShedPolicy::Reject;
    cfg.render = session.config().train.render;
    return cfg;
}

/** serve.max_rps: the highest rung of kLadder that meets the latency
 *  limit with at most 1% failures and no growing backlog. The
 *  fixed-rate phase is the middle rung; other rungs run in order away
 *  from it and stop at the first one that decides the answer. */
double
ladderMaxRate(RenderService &service, const SnapshotSlot &slot,
              const std::vector<Camera> &path, const Phase &fixed,
              double rung_s, uint64_t seed, std::vector<Phase> &rungs)
{
    auto meets = [&](double rate) {
        rungs.push_back(runPhase(service, slot, path, rate, rung_s,
                                 seed * 1000003ull + rungs.size()));
        return rungs.back().meetsLimit();
    };
    double best = 0;
    if (fixed.meetsLimit()) {
        best = fixed.rate;
        for (double k : kLadder) {
            if (k <= 1)
                continue;
            if (!meets(k * fixed.rate))
                break;
            best = k * fixed.rate;
        }
    } else {
        for (auto it = std::rbegin(kLadder); it != std::rend(kLadder);
             ++it)
            if (*it < 1 && meets(*it * fixed.rate)) {
                best = *it * fixed.rate;
                break;
            }
    }
    return best;
}

std::string
phaseJson(const Phase &ph)
{
    const std::vector<double> lat = ph.latenciesMs();
    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", v);
        return std::isfinite(v) ? std::string(buf) : std::string("null");
    };
    std::ostringstream os;
    os << "{\"rate\": " << ph.rate << ", \"requests\": "
       << ph.outcomes.size() << ", \"p50_ms\": " << num(percentile(lat, 50))
       << ", \"p90_ms\": " << num(percentile(lat, 90))
       << ", \"p99_ms\": " << num(percentile(lat, 99))
       << ", \"failed_frac\": " << num(ph.failedFrac())
       << ", \"backlog_growing\": "
       << (ph.backlogGrowing() ? "true" : "false")
       << ", \"meets_limit\": " << (ph.meetsLimit() ? "true" : "false")
       << "}";
    return os.str();
}

/** End-to-end serving metrics of the fixed-rate phase and the ladder;
 *  the rungs' details go into the run record. */
void
servingMetrics(const Phase &fixed, const std::vector<Phase> &rungs,
               double max_rps, RunRecord &out)
{
    const std::vector<double> lat = fixed.latenciesMs();
    out.set("serve.latency_ms.p50", percentile(lat, 50), "ms");
    out.set("serve.max_rps", max_rps, "req/s");
    out.set("serve.ok_frac", 1.0 - fixed.failedFrac(), "ratio");
    std::string ladder = "\"ladder\": [" + phaseJson(fixed);
    for (const Phase &r : rungs)
        ladder += ", " + phaseJson(r);
    out.extra.push_back(ladder + "]");
}

/** Every request of @p phases resolved with a known status, and the
 *  service's own counters agree with the benchmark's. */
void
checkAccounting(const RenderService &service,
                const std::vector<const Phase *> &phases,
                size_t extra_submitted, RunRecord &out)
{
    size_t submitted = extra_submitted, ok = extra_submitted, shed = 0;
    for (const Phase *ph : phases)
        for (const Outcome &o : ph->outcomes) {
            ++submitted;
            if (o.status == ServeStatus::Ok)
                ++ok;
            else
                ++shed;
        }
    const ServeStats st = service.stats();
    const uint64_t service_total = st.requests + st.shed_queue_full
                                   + st.shed_deadline + st.rejected_shutdown
                                   + st.throttled_client;
    out.check("requests_accounted",
              st.submitted == submitted && service_total == submitted
                  && st.requests == ok && ok + shed == submitted);
}

/** With training stopped: re-serve a seeded sample of requests and
 *  compare every Ok frame bitwise with renderForward on the snapshot
 *  the service rendered from. Returns the requests submitted. */
size_t
checkServedFramesBitwise(RenderService &service, const SnapshotSlot &slot,
                         const std::vector<Camera> &path,
                         const RenderConfig &render, uint64_t seed,
                         RunRecord &out)
{
    std::shared_ptr<const ModelSnapshot> snap = slot.acquire();
    std::mt19937_64 rng(seed ^ 0xb17b15eull);
    std::vector<size_t> picks;
    std::vector<std::future<RenderResponse>> futures;
    for (int i = 0; i < kBitwiseSample; ++i) {
        picks.push_back(static_cast<size_t>(rng() % path.size()));
        futures.push_back(service.submit(path[picks.back()]));
    }
    RenderArena arena;
    bool identical = true;
    int compared = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
        RenderResponse r = futures[i].get();
        identical = identical && r.ok();
        if (!r.ok())
            continue;
        const Camera &cam = path[picks[i]];
        const RenderOutput &ref =
            renderForward(snap->model, cam, frustumCull(snap->model, cam),
                          render, arena);
        identical = identical && r.snapshot_version == snap->version
                    && r.image.data() == ref.image.data();
        ++compared;
    }
    out.check("served_frames_match_renderForward",
              identical && compared == kBitwiseSample);
    return futures.size();
}

/** Per-layer serving metrics of the traced fixed-rate phase. */
void
servingLedger(const Phase &ph, const Ledger &ledger, RunRecord &out)
{
    out.set("serve.latency_ms.p90", percentile(ph.latenciesMs(), kTailPct),
            "ms");
    std::vector<double> queue, render, late;
    double batches = 0, lag = 0, backlog = 0;
    for (const Outcome &o : ph.outcomes) {
        late.push_back((o.sent - o.due) * 1e3);
        if (o.status != ServeStatus::Ok)
            continue;
        queue.push_back(o.queue_ms);
        render.push_back(o.render_ms);
        batches += 1.0 / std::max(1, o.batch_size);
        lag += o.lag;
    }
    for (const auto &b : ph.backlog)
        backlog = std::max(backlog, b.second);
    out.set("serve.queue_wait_ms.p50", percentile(queue, 50), "ms");
    out.set("serve.queue_wait_ms.p99", percentile(queue, 99), "ms");
    out.set("serve.render_ms.p50", percentile(render, 50), "ms");
    out.set("serve.render_ms.p99", percentile(render, 99), "ms");
    out.set("serve.batch_size_mean",
            batches > 0 ? queue.size() / batches : 0, "count");
    out.set("serve.backlog_max", backlog, "count");
    out.set("serve.snapshot_lag_mean",
            queue.empty() ? 0 : lag / queue.size(), "count");
    out.set("serve.generator_late_ms.p99", percentile(late, 99), "ms");

    double self = 0, total = 0;
    for (const char *name : {"serve.render_batch", "serve.render"}) {
        auto it = ledger.find(name);
        if (it != ledger.end()) {
            self += it->second.self_ms;
            total += it->second.total_ms;
        }
    }
    out.set("ledger.serve_unattributed_frac", total > 0 ? self / total : 0,
            "ratio");
}

// ---------------------------------------------------------------------------
// Traced-run ledger pieces

/** Tracer for the traced window: rings large enough that a run never
 *  wraps (obs.dropped_spans reports it if one does). */
Tracer &
benchTracer()
{
    static Tracer tracer(1u << 17);
    return tracer;
}

void
writeTrace(const Tracer &tracer, const Options &opt)
{
    if (!opt.trace_out.empty())
        tracer.writeChromeTraceFile(opt.trace_out);
}

struct StageDelta
{
    double ms[kNumTrainStages] = {};
    double stall_ms = 0;
};

StageDelta
stageDelta(const StageTimings &before, const StageTimings &after,
           size_t steps)
{
    StageDelta d;
    const double n = steps > 0 ? static_cast<double>(steps) : 1;
    for (int s = 0; s < kNumTrainStages; ++s)
        d.ms[s] = (after.seconds[s] - before.seconds[s]) * 1e3 / n;
    for (size_t i = before.microbatches.size();
         i < after.microbatches.size(); ++i)
        d.stall_ms += after.microbatches[i].wait * 1e3 / n;
    return d;
}

/** Offload/gaussian/train per-layer metrics of a traced training
 *  window. */
void
trainingLedger(const Clm &session, const std::vector<Step> &steps,
               const StageDelta &d, const Ledger &ledger, RunRecord &out)
{
    double views = 0, h2d = 0, d2h = 0, hits = 0, adam = 0;
    std::vector<double> wall;
    for (const Step &s : steps) {
        views += s.views;
        h2d += s.stats.h2d_bytes;
        d2h += s.stats.d2h_bytes;
        hits += static_cast<double>(s.stats.cache_hits);
        adam += static_cast<double>(s.stats.adam_updated);
        wall.push_back(s.wall_s * 1e3);
    }
    views = std::max(views, 1.0);
    const double loads = h2d / kNonCriticalBytesPerGaussian;
    auto at = [&d](TrainStage s) { return d.ms[static_cast<int>(s)]; };
    out.set("offload.schedule_ms", at(TrainStage::Schedule), "ms");
    out.set("offload.gather_ms", at(TrainStage::Gather), "ms");
    out.set("offload.cachecopy_ms", at(TrainStage::CacheCopy), "ms");
    out.set("offload.scatter_ms", at(TrainStage::Scatter), "ms");
    out.set("offload.stall_ms", d.stall_ms, "ms");
    out.set("gaussian.adam_ms", at(TrainStage::Finalize), "ms");
    out.set("offload.h2d_bytes_per_view", h2d / views, "bytes");
    out.set("offload.d2h_bytes_per_view", d2h / views, "bytes");
    out.set("offload.cache_hit_frac",
            hits + loads > 0 ? hits / (hits + loads) : 0, "ratio");
    out.set("gaussian.adam_rows_per_view", adam / views, "count");
    out.set("train.step_ms.p50", percentile(wall, 50), "ms");

    size_t peak_rows = 0;
    if (const auto *ct =
            dynamic_cast<const ClmTrainer *>(&session.trainer()))
        peak_rows = ct->peakBufferRows();
    out.set("offload.device_bytes_peak",
            static_cast<double>(session.model().size()
                                    * kCriticalBytesPerGaussian
                                + 2 * peak_rows
                                      * (kNonCriticalBytesPerGaussian
                                         + kGradBytesPerGaussian)),
            "bytes");

    out.set("render.forward_ms", spanMeanMs(ledger, "train.forward"), "ms");
    out.set("render.loss_ms", spanMeanMs(ledger, "train.loss"), "ms");
    out.set("render.backward_ms", spanMeanMs(ledger, "train.backward"),
            "ms");
    out.set("train.publish_ms", spanMeanMs(ledger, "train.publish"), "ms");
    out.set("render.project_ms", spanMeanMs(ledger, "render.project"), "ms");
    out.set("render.bin_ms", spanMeanMs(ledger, "render.bin"), "ms");
    out.set("render.composite_ms", spanMeanMs(ledger, "render.composite"),
            "ms");
    auto step = ledger.find("bench.train_step");
    out.set("ledger.unattributed_frac",
            step != ledger.end() && step->second.total_ms > 0
                ? step->second.self_ms / step->second.total_ms
                : 0,
            "ratio");
}

void
poolLedger(std::vector<double> samples, RunRecord &out)
{
    out.set("util.pool_probe_ms.p50", percentile(samples, 50), "ms");
    out.set("util.pool_probe_ms.p99", percentile(samples, 99), "ms");
}

/** Compare the per-batch counts of two training runs with one seed. */
void
auditRepeat(const std::vector<Step> &a, const std::vector<Step> &b,
            RunRecord &out)
{
    size_t same = 0, n = std::min(a.size(), b.size());
    double hits = 0, hits_diff = 0, rendered = 0, rendered_diff = 0;
    for (size_t i = 0; i < n; ++i) {
        const BatchStats &x = a[i].stats;
        const BatchStats &y = b[i].stats;
        same += a[i].order_hash == b[i].order_hash
                && x.h2d_bytes == y.h2d_bytes
                && x.cache_hits == y.cache_hits
                && x.gaussians_rendered == y.gaussians_rendered;
        hits += static_cast<double>(x.cache_hits);
        hits_diff += std::fabs(static_cast<double>(x.cache_hits)
                               - static_cast<double>(y.cache_hits));
        rendered += static_cast<double>(x.gaussians_rendered);
        rendered_diff +=
            std::fabs(static_cast<double>(x.gaussians_rendered)
                      - static_cast<double>(y.gaussians_rendered));
    }
    out.set("audit.batch_repeat_frac",
            n ? static_cast<double>(same) / n : 0, "ratio");
    out.set("audit.cache_hits_spread_frac",
            hits > 0 ? hits_diff / hits : 0, "ratio");
    out.set("audit.rendered_spread_frac",
            rendered > 0 ? rendered_diff / rendered : 0, "ratio");
    out.extra.push_back(stepsJson("audit_run_a", a));
    out.extra.push_back(stepsJson("audit_run_b", b));
}

std::unique_ptr<Clm>
setUp(const ClmConfig &cfg, int repeats, RunRecord &out)
{
    std::unique_ptr<Clm> session;
    std::vector<double> times;
    for (int r = 0; r < repeats; ++r) {
        session.reset();
        Timer t;
        session = std::make_unique<Clm>(cfg);
        times.push_back(t.seconds());
    }
    out.set("setup_s", percentile(times, 50), "s");
    return session;
}

/** Training-window steps of @p session for @p seconds, back to back.
 *  With @p at_k, also keeps the snapshot published after step @p k. */
std::vector<Step>
trainFor(Clm &session, double seconds, size_t k = 0,
         std::shared_ptr<const ModelSnapshot> *at_k = nullptr)
{
    std::vector<Step> steps;
    const double t0 = nowS();
    while (nowS() - t0 < seconds) {
        steps.push_back(trainStep(session));
        if (at_k != nullptr && steps.size() == k)
            *at_k = session.snapshots().acquire();
    }
    return steps;
}

/** Mean PSNR of @p model over the session's training views (what
 *  Trainer::evaluatePsnr computes for the live model). */
double
modelPsnr(const Clm &session, const GaussianModel &model)
{
    RenderArena arena;
    double acc = 0;
    for (size_t v = 0; v < session.viewCount(); ++v) {
        const Camera &cam = session.camera(v);
        acc += renderForward(model, cam, frustumCull(model, cam),
                             session.config().train.render, arena)
                   .image.psnr(session.trainer().groundTruth(v));
    }
    return acc / session.viewCount();
}

double
meanStepS(const std::vector<Step> &steps)
{
    double s = 0;
    for (const Step &x : steps)
        s += x.wall_s;
    return steps.empty() ? 0 : s / steps.size();
}

/** Ledger rows that only the serving workload or the probes fill. */
void
zeroProbeRows(RunRecord &out)
{
    for (const char *m : {"shard.publish_ms", "shard.route_ms",
                          "shard.render_ms", "shard.unsharded_render_ms"})
        out.set(m, 0, "ms");
    out.set("shard.speedup", 0, "ratio");
    out.set("shard.pruned_frac", 0, "ratio");
}

/** Repeat audit: a fresh session with the same seed re-runs the first
 *  kAuditSteps batches of @p first. */
void
runAudit(const ClmConfig &cfg, const std::vector<Step> &first,
         RunRecord &out)
{
    Clm again(cfg);
    std::vector<Step> second;
    for (int i = 0; i < kAuditSteps; ++i)
        second.push_back(trainStep(again));
    auditRepeat(first, second, out);
}

// ---------------------------------------------------------------------------
// The workload

/** Phase 1 of a traced run: an untraced reference window, then the
 *  traced training window with the training-side ledger. Returns the
 *  traced window's steps. */
std::vector<Step>
tracedTraining(Clm &session, const Options &opt, size_t k,
               std::shared_ptr<const ModelSnapshot> &at_k,
               std::vector<Step> &all, uint64_t &dropped, RunRecord &out)
{
    const std::vector<Step> plain = trainFor(session, opt.seconds / 3);
    all.insert(all.end(), plain.begin(), plain.end());
    const auto *ct = dynamic_cast<const ClmTrainer *>(&session.trainer());
    const StageTimings before = ct->stageTimings();
    Tracer &tracer = benchTracer();
    tracer.clear();
    Tracer::enable(&tracer);
    const double t0 = nowS();
    std::vector<Step> window = trainFor(session, opt.seconds, k, &at_k);
    const double t1 = nowS();
    Tracer::enable(nullptr);
    dropped += tracer.stats().dropped;
    const Ledger ledger = buildLedger(tracer.snapshotSpans());
    trainingLedger(session, window,
                   stageDelta(before, ct->stageTimings(), window.size()),
                   ledger, out);
    out.set("ledger.views_per_s", viewsPerSecond(window, t0, t1),
            "views/s");
    out.set("obs.trace_overhead_frac",
            meanStepS(window) / meanStepS(plain) - 1, "ratio");
    out.extra.push_back("\"training_" + ledgerJson(ledger).substr(1));
    return window;
}

} // namespace

void
runWorkload(const Options &opt, RunRecord &out)
{
    const ClmConfig cfg = workloadConfig(opt);
    std::unique_ptr<Clm> session =
        setUp(cfg, opt.trace ? 1 : kSetupRepeats, out);
    const double psnr0 = session->evaluatePsnr();
    const std::vector<Camera> path = requestPath(cfg);
    const size_t k = static_cast<size_t>(psnrSteps(opt));
    Tracer &tracer = benchTracer();
    uint64_t dropped = 0;

    // Warm-up outside the windows: arenas and pools reach steady state.
    // A traced run keeps kAuditSteps of them for the repeat audit.
    std::vector<Step> warm;
    for (int i = 0; i < (opt.trace ? kAuditSteps : 1); ++i)
        warm.push_back(trainStep(*session));
    std::vector<Step> all = warm;

    // Phase 1: training alone.
    std::shared_ptr<const ModelSnapshot> at_k;
    std::vector<Step> window;
    if (!opt.trace) {
        const double t0 = nowS();
        window = trainFor(*session, opt.seconds, k, &at_k);
        out.set("train.views_per_s", viewsPerSecond(window, t0, nowS()),
                "views/s");
        out.extra.push_back(stepTimesJson(window));
    } else {
        window = tracedTraining(*session, opt, k, at_k, all, dropped, out);
    }
    all.insert(all.end(), window.begin(), window.end());
    // A slow host may end the window early: finish untimed.
    for (size_t done = window.size(); done < k;) {
        all.push_back(trainStep(*session));
        if (++done == k)
            at_k = session->snapshots().acquire();
    }

    // Phase 2: serving while training continues on a background thread.
    RenderService service(session->snapshots(), serveConfig(*session));
    std::vector<Step> background;    // Owned by `trainer` until joined.
    std::atomic<bool> stop{false};
    std::thread trainer([&] {
        while (!stop.load())
            background.push_back(trainStep(*session));
    });
    Phase fixed;
    std::vector<Phase> rungs;
    double max_rps = 0;
    std::vector<double> pool_samples;
    if (!opt.trace) {
        fixed = runPhase(service, session->snapshots(), path, fixedRate(opt),
                         fixedWindowS(opt), opt.seed);
        max_rps = ladderMaxRate(service, session->snapshots(), path, fixed,
                                opt.seconds / 4, opt.seed, rungs);
    } else {
        tracer.clear();
        Tracer::enable(&tracer);
        PoolProbe pool(0.01);
        fixed = runPhase(service, session->snapshots(), path, fixedRate(opt),
                         fixedWindowS(opt), opt.seed);
        pool_samples = pool.stop();
    }
    stop = true;
    trainer.join();
    if (opt.trace) {
        Tracer::enable(nullptr);
        dropped += tracer.stats().dropped;
        writeTrace(tracer, opt);
    }
    const size_t resampled = checkServedFramesBitwise(
        service, session->snapshots(), path, cfg.train.render, opt.seed, out);
    service.stop();
    std::vector<const Phase *> phases{&fixed};
    for (const Phase &r : rungs)
        phases.push_back(&r);
    checkAccounting(service, phases, resampled, out);

    all.insert(all.end(), background.begin(), background.end());
    const double psnr = modelPsnr(*session, at_k->model);
    at_k.reset();
    out.check("losses_finite", allLossesFinite(all));
    out.check("psnr_not_below_initial", psnr >= psnr0);
    out.extra.push_back("\"psnr_initial_db\": " + std::to_string(psnr0));

    out.attempted = fixed.outcomes.size();
    out.failed = fixed.outcomes.size() - fixed.okCount();
    for (const Step &s : window) {
        out.attempted += s.views;
        if (!std::isfinite(s.stats.loss))
            out.failed += s.views;
    }
    const double t0 = fixed.t0, t1 = fixed.t0 + fixed.duration;
    if (!opt.trace) {
        out.set("train.psnr_db", psnr, "dB");
        out.set("train.serving_views_per_s",
                viewsPerSecond(background, t0, t1), "views/s");
        servingMetrics(fixed, rungs, max_rps, out);
        out.set("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    const Ledger ledger = buildLedger(tracer.snapshotSpans());
    servingLedger(fixed, ledger, out);
    poolLedger(pool_samples, out);
    out.set("ledger.serving_views_per_s", viewsPerSecond(background, t0, t1),
            "views/s");
    out.extra.push_back("\"serving_" + ledgerJson(ledger).substr(1));

    zeroProbeRows(out);
    probeLayers(*session, trainCameras(cfg.scene), opt.seed, out);
    if (opt.probes) {
        probeBvh(session->model(), trainCameras(cfg.scene), out);
        if (opt.workload == "train-city") {
            std::vector<Camera> replayed;
            for (size_t i = 0; i < fixed.outcomes.size() && i < 64; ++i)
                replayed.push_back(path[fixed.outcomes[i].camera]);
            probeShards(*session, replayed, tracer, out);
            dropped += tracer.stats().dropped;
        }
    }
    out.set("obs.dropped_spans", static_cast<double>(dropped), "count");
    out.check("trace_no_dropped_spans", dropped == 0);
    session.reset();
    runAudit(cfg, warm, out);
}

} // namespace perfbench
