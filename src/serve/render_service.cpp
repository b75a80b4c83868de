#include "serve/render_service.hpp"

#include <algorithm>
#include <utility>

#include "math/stats.hpp"
#include "obs/trace.hpp"
#include "render/culling.hpp"
#include "shard/router.hpp"
#include "shard/shard_batch.hpp"
#include "shard/shard_renderer.hpp"
#include "shard/sharded_snapshot.hpp"
#include "util/logging.hpp"
#include "util/mix.hpp"

namespace clm {

const char *
serveStatusName(ServeStatus s)
{
    switch (s) {
    case ServeStatus::Ok: return "ok";
    case ServeStatus::ShedQueueFull: return "shed_queue_full";
    case ServeStatus::ShedDeadline: return "shed_deadline";
    case ServeStatus::RejectedShutdown: return "rejected_shutdown";
    case ServeStatus::ThrottledClient: return "throttled_client";
    }
    return "unknown";
}

uint64_t
latencyReservoirSlot(uint64_t seed, uint64_t index)
{
    return splitmix64(seed ^ index) % index;
}

RenderService::RenderService(const SnapshotSlot &snapshots,
                             ServeConfig config)
    : config_(config), snapshots_(&snapshots),
      queue_(config.queue_capacity)
{
    initMetrics();
    startWorkers();
}

RenderService::RenderService(const ShardedSnapshotSlot &shards,
                             ServeConfig config)
    : config_(config), sharded_(&shards), queue_(config.queue_capacity)
{
    initMetrics();
    startWorkers();
}

void
RenderService::initMetrics()
{
    metrics_ = config_.metrics != nullptr ? config_.metrics : &own_metrics_;
    MetricsRegistry &m = *metrics_;
    m_submitted_ = &m.counter("serve.submitted");
    m_requests_ = &m.counter("serve.requests");
    m_batches_ = &m.counter("serve.batches");
    m_shed_queue_full_ = &m.counter("serve.shed_queue_full");
    m_shed_deadline_ = &m.counter("serve.shed_deadline");
    m_rejected_shutdown_ = &m.counter("serve.rejected_shutdown");
    m_throttled_client_ = &m.counter("serve.throttled_client");
    m_queue_depth_ = &m.gauge("serve.queue_depth");
    // Millisecond histograms spanning 1 us .. 100 s at 8 buckets per
    // octave (~9% relative resolution) — wide enough for queue waits
    // under overload and tight enough that p99 decomposition is
    // meaningful.
    m_queue_wait_ms_ = &m.histogram("serve.queue_wait_ms", 1e-3, 1e5, 8);
    m_render_ms_ = &m.histogram("serve.render_ms", 1e-3, 1e5, 8);
    m_latency_ms_ = &m.histogram("serve.latency_ms", 1e-3, 1e5, 8);
}

void
RenderService::startWorkers()
{
    CLM_ASSERT(config_.workers >= 1, "need at least one serve worker");
    CLM_ASSERT(config_.max_batch >= 1, "max_batch must be >= 1");
    workers_.reserve(config_.workers);
    for (int w = 0; w < config_.workers; ++w) {
        if (sharded_ != nullptr)
            workers_.emplace_back([this] { shardedWorkerLoop(); });
        else
            workers_.emplace_back([this] { workerLoop(); });
    }
}

RenderService::~RenderService() { stop(); }

void
RenderService::failRequest(PendingRequest &req, ServeStatus status)
{
    RenderResponse resp;
    resp.status = status;
    resp.request_id = req.id;
    resp.client_id = req.client_id;
    resp.queue_s = clock_.seconds() - req.enqueue_s;
    req.reply.set_value(std::move(resp));
    switch (status) {
    case ServeStatus::ShedQueueFull: m_shed_queue_full_->add(); break;
    case ServeStatus::ShedDeadline: m_shed_deadline_->add(); break;
    case ServeStatus::RejectedShutdown: m_rejected_shutdown_->add(); break;
    case ServeStatus::ThrottledClient: m_throttled_client_->add(); break;
    case ServeStatus::Ok: break;    // not a failure; never passed here
    }
}

bool
RenderService::admitClient(uint64_t client_id)
{
    const AdmissionConfig &adm = config_.admission;
    const double now = clock_.seconds();
    std::lock_guard<std::mutex> lock(admission_mutex_);
    auto emplaced =
        buckets_.try_emplace(client_id, TokenBucket{adm.client_burst, now});
    TokenBucket &bucket = emplaced.first->second;
    if (!emplaced.second && adm.client_rate > 0)
        bucket.tokens =
            std::min(adm.client_burst,
                     bucket.tokens
                         + (now - bucket.refill_s) * adm.client_rate);
    bucket.refill_s = now;
    if (bucket.tokens >= 1.0) {
        bucket.tokens -= 1.0;
        return true;
    }
    return false;
}

std::future<RenderResponse>
RenderService::submit(const Camera &camera, uint64_t client_id)
{
    // The request id doubles as the trace id: minted here, carried in
    // the queue slot, echoed in every span the request's path records.
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    m_submitted_->add();
    TraceContext trace_ctx(id);
    ScopedSpan admit_span("serve.admit");
    PendingRequest req{camera, id, client_id, clock_.seconds(), 0, 0, {}};
    if (config_.admission.deadline_s > 0)
        req.deadline_s = req.enqueue_s + config_.admission.deadline_s;
    if (Tracer *tracer = Tracer::current())
        req.enqueue_ns = tracer->nowNs();
    std::future<RenderResponse> fut = req.reply.get_future();

    // Fairness gate first: a throttled client never consumes queue
    // space another client could have used.
    if (config_.admission.client_burst > 0 && !admitClient(client_id)) {
        failRequest(req, ServeStatus::ThrottledClient);
        return fut;
    }
    // Fault injection (tests): the admission path sees a saturated
    // queue regardless of actual occupancy.
    if (config_.faults != nullptr
        && config_.faults->fires(FaultPoint::AdmitSaturate)) {
        failRequest(req, ServeStatus::ShedQueueFull);
        return fut;
    }

    QueuePush result = QueuePush::Closed;
    switch (config_.admission.shed) {
    case ShedPolicy::Block:
        if (config_.admission.block_timeout_s > 0)
            result = queue_.pushFor(req, config_.admission.block_timeout_s);
        else
            result =
                queue_.push(req) ? QueuePush::Ok : QueuePush::Closed;
        break;
    case ShedPolicy::Reject:
        result = queue_.tryPush(req);
        break;
    case ShedPolicy::DropOldest: {
        std::vector<PendingRequest> evicted;
        result = queue_.pushDropOldest(req, evicted);
        for (PendingRequest &old : evicted)
            failRequest(old, ServeStatus::ShedQueueFull);
        break;
    }
    }
    // Every non-enqueued request is fulfilled with an explicit status:
    // never a hang, never a broken promise — submit-after-stop()
    // included.
    if (result == QueuePush::Full)
        failRequest(req, ServeStatus::ShedQueueFull);
    else if (result == QueuePush::Closed)
        failRequest(req, ServeStatus::RejectedShutdown);
    return fut;
}

void
RenderService::stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    queue_.close();    // workers drain what is queued, then exit
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

bool
RenderService::admitBatch(std::vector<PendingRequest> &batch,
                          std::vector<PendingRequest> &expired)
{
    const size_t cap = static_cast<size_t>(config_.max_batch);
    bool alive;
    if (config_.admission.deadline_s > 0) {
        alive = queue_.popBatchFiltered(
            batch, cap,
            [this](const PendingRequest &r) {
                return r.deadline_s > 0 && clock_.seconds() > r.deadline_s;
            },
            expired);
    } else {
        expired.clear();
        alive = queue_.popBatch(batch, cap);
    }
    if (!alive)
        return false;
    for (PendingRequest &r : expired)
        failRequest(r, ServeStatus::ShedDeadline);
    return true;
}

void
RenderService::workerLoop()
{
    std::vector<PendingRequest> batch;
    std::vector<PendingRequest> expired;
    BatchRenderArena arena;
    std::vector<Camera> cams;
    std::vector<std::vector<uint32_t>> subsets;
    std::vector<double> latencies;

    while (true) {
        if (config_.faults != nullptr)
            config_.faults->inject(FaultPoint::WorkerStall);
        if (!admitBatch(batch, expired))
            break;
        if (batch.empty())
            continue;    // everything queued had expired
        // Close the cross-thread serve.queue_wait spans: began on the
        // submitting thread (enqueue_ns), end at this dequeue. Async-
        // kind, so the exporter emits "b"/"e" pairs keyed by trace id.
        if (Tracer *tracer = Tracer::current()) {
            const uint64_t now_ns = tracer->nowNs();
            for (const PendingRequest &r : batch)
                if (r.enqueue_ns != 0)
                    tracer->record("serve.queue_wait", r.id, r.enqueue_ns,
                                   now_ns, 0, SpanKind::Async);
        }
        std::shared_ptr<const ModelSnapshot> snap = snapshots_->acquire();
        CLM_ASSERT(snap != nullptr,
                   "RenderService: render requested before the first "
                   "snapshot publish");
        const size_t n = batch.size();
        latencies.resize(n);

        auto respond = [&](size_t v, Image image, double batch_t0,
                           double render_s) {
            RenderResponse resp;
            resp.image = std::move(image);
            resp.request_id = batch[v].id;
            resp.client_id = batch[v].client_id;
            resp.snapshot_version = snap->version;
            resp.snapshot_hash = snap->param_hash;
            resp.train_step = snap->train_step;
            resp.batch_size = static_cast<int>(n);
            resp.queue_s = batch_t0 - batch[v].enqueue_s;
            resp.render_s = render_s;
            latencies[v] = clock_.seconds() - batch[v].enqueue_s;
            m_queue_wait_ms_->record(resp.queue_s * 1e3);
            m_render_ms_->record(render_s * 1e3);
            m_latency_ms_->record(latencies[v] * 1e3);
            batch[v].reply.set_value(std::move(resp));
        };

        if (config_.fused_batch && n > 1) {
            // Fused multi-view pass: one shared cull/precompute/sort
            // for the whole coalesced batch. The snapshot version keys
            // the cull stage cache: consecutive batches on the same
            // published state skip the per-Gaussian SoA rebuild.
            const double t0 = clock_.seconds();
            cams.clear();
            for (const PendingRequest &r : batch)
                cams.push_back(r.camera);
            {
                // Span attributed to the batch's first request (one
                // batch, one span; per-stage children carry the same
                // ambient trace id via StageClock).
                TraceContext trace_ctx(batch[0].id);
                ScopedSpan render_span("serve.render_batch");
                {
                    ScopedSpan cull_span("render.cull");
                    frustumCullBatch(snap->model, cams, arena.cull,
                                     subsets, config_.render.parallel,
                                     snap->version);
                }
                renderForwardBatch(snap->model, cams, subsets,
                                   config_.render, arena);
            }
            const double render_s = clock_.seconds() - t0;
            for (size_t v = 0; v < n; ++v)
                respond(v, arena.views[v].out.image, t0, render_s);
        } else {
            // View-at-a-time: the plain single-view path per request.
            if (arena.views.empty())
                arena.views.resize(1);
            for (size_t v = 0; v < n; ++v) {
                const double t0 = clock_.seconds();
                TraceContext trace_ctx(batch[v].id);
                ScopedSpan render_span("serve.render");
                std::vector<uint32_t> subset;
                {
                    ScopedSpan cull_span("render.cull");
                    subset = frustumCull(snap->model, batch[v].camera);
                }
                const RenderOutput &out =
                    renderForward(snap->model, batch[v].camera, subset,
                                  config_.render, arena.views[0]);
                const double render_s = clock_.seconds() - t0;
                respond(v, out.image, t0, render_s);
            }
        }
        recordBatch(n, latencies.data(), snap->version);
    }
}

void
RenderService::shardedWorkerLoop()
{
    std::vector<PendingRequest> batch;
    std::vector<PendingRequest> expired;
    ShardRenderArena arena;
    ShardBatchRenderArena batch_arena;
    std::vector<Camera> cams;
    std::vector<uint32_t> union_scratch;
    std::vector<double> latencies;
    ShardRouter router;
    uint64_t router_version = 0;    //!< Base version router was built on.

    while (true) {
        if (config_.faults != nullptr)
            config_.faults->inject(FaultPoint::WorkerStall);
        if (!admitBatch(batch, expired))
            break;
        if (batch.empty())
            continue;    // everything queued had expired
        if (Tracer *tracer = Tracer::current()) {
            const uint64_t now_ns = tracer->nowNs();
            for (const PendingRequest &r : batch)
                if (r.enqueue_ns != 0)
                    tracer->record("serve.queue_wait", r.id, r.enqueue_ns,
                                   now_ns, 0, SpanKind::Async);
        }
        std::shared_ptr<const ShardedSnapshot> snap = sharded_->acquire();
        CLM_ASSERT(snap != nullptr,
                   "RenderService: render requested before the first "
                   "sharded snapshot publish");
        CLM_ASSERT(snap->base != nullptr, "sharded snapshot without base");
        if (router.shardCount() == 0
            || router_version != snap->base->version) {
            router = ShardRouter(*snap);
            router_version = snap->base->version;
        }
        const size_t n = batch.size();
        latencies.resize(n);
        uint64_t selected_sum = 0;
        uint64_t total_sum = 0;
        uint64_t union_shards = 0;

        if (config_.fused_batch && n > 1) {
            // Composed pipeline (shard/shard_batch.hpp): per-view
            // routing unioned, one fused cull/precompute/sort per union
            // shard — the cull stage cached per (snapshot version,
            // shard id) across wakeups — then the exact per-view k-way
            // merges. Frames are bitwise identical to the
            // view-at-a-time path below.
            const double t0 = clock_.seconds();
            cams.clear();
            for (const PendingRequest &r : batch)
                cams.push_back(r.camera);
            {
                TraceContext trace_ctx(batch[0].id);
                ScopedSpan render_span("serve.render_batch");
                renderForwardBatchSharded(*snap, router, cams,
                                          config_.render, batch_arena,
                                          snap->base->version);
            }
            const double render_s = clock_.seconds() - t0;
            union_shards = batch_arena.union_shards.size();
            for (size_t v = 0; v < n; ++v) {
                RenderResponse resp;
                resp.image = batch_arena.views[v].out.image;
                resp.request_id = batch[v].id;
                resp.client_id = batch[v].client_id;
                resp.snapshot_version = snap->base->version;
                resp.snapshot_hash = snap->base->param_hash;
                resp.train_step = snap->base->train_step;
                resp.batch_size = static_cast<int>(n);
                resp.queue_s = t0 - batch[v].enqueue_s;
                resp.render_s = render_s;
                resp.shards_total = static_cast<int>(snap->shardCount());
                resp.shards_selected =
                    static_cast<int>(batch_arena.routes[v].size());
                selected_sum += batch_arena.routes[v].size();
                total_sum += snap->shardCount();
                latencies[v] = clock_.seconds() - batch[v].enqueue_s;
                m_queue_wait_ms_->record(resp.queue_s * 1e3);
                m_render_ms_->record(render_s * 1e3);
                m_latency_ms_->record(latencies[v] * 1e3);
                batch[v].reply.set_value(std::move(resp));
            }
        } else {
            // View-at-a-time: route + render each request alone (also
            // the max_batch=1 / fused_batch=off bench baseline).
            union_scratch.clear();
            for (size_t v = 0; v < n; ++v) {
                const double t0 = clock_.seconds();
                TraceContext trace_ctx(batch[v].id);
                {
                    ScopedSpan route_span("serve.route");
                    router.route(batch[v].camera.frustum(), arena.route);
                }
                ScopedSpan render_span("serve.render");
                const RenderOutput &out = renderForwardSharded(
                    *snap, arena.route, batch[v].camera, config_.render,
                    arena);
                const double render_s = clock_.seconds() - t0;

                RenderResponse resp;
                resp.image = out.image;
                resp.request_id = batch[v].id;
                resp.client_id = batch[v].client_id;
                resp.snapshot_version = snap->base->version;
                resp.snapshot_hash = snap->base->param_hash;
                resp.train_step = snap->base->train_step;
                resp.batch_size = static_cast<int>(n);
                resp.queue_s = t0 - batch[v].enqueue_s;
                resp.render_s = render_s;
                resp.shards_total = static_cast<int>(snap->shardCount());
                resp.shards_selected =
                    static_cast<int>(arena.route.size());
                selected_sum += arena.route.size();
                total_sum += snap->shardCount();
                union_scratch.insert(union_scratch.end(),
                                     arena.route.begin(),
                                     arena.route.end());
                latencies[v] = clock_.seconds() - batch[v].enqueue_s;
                m_queue_wait_ms_->record(resp.queue_s * 1e3);
                m_render_ms_->record(render_s * 1e3);
                m_latency_ms_->record(latencies[v] * 1e3);
                batch[v].reply.set_value(std::move(resp));
            }
            std::sort(union_scratch.begin(), union_scratch.end());
            union_shards = static_cast<uint64_t>(
                std::unique(union_scratch.begin(), union_scratch.end())
                - union_scratch.begin());
        }
        recordBatch(n, latencies.data(), snap->base->version,
                    selected_sum, total_sum, union_shards);
    }
}

void
RenderService::recordBatch(size_t batch_size, const double *latencies_s,
                           uint64_t snapshot_version,
                           uint64_t shards_selected_sum,
                           uint64_t shards_total_sum,
                           uint64_t union_shards)
{
    m_requests_->add(batch_size);
    m_batches_->add();
    // Keep the gauge live for the periodic exporter, not only stats().
    m_queue_depth_->set(static_cast<double>(queue_.size()));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (batch_occupancy_.size() < batch_size)
        batch_occupancy_.resize(batch_size, 0);
    ++batch_occupancy_[batch_size - 1];
    for (size_t v = 0; v < batch_size; ++v) {
        // Algorithm-R uniform reservoir. The replacement slot for the
        // i-th observation is splitmix64(seed, i) % i — a pure function
        // of the (seed, index) pair, so the set of sampled indices is
        // reproducible run-to-run regardless of how worker threads
        // interleave their recordBatch calls.
        const double l = latencies_s[v];
        max_latency_s_ = std::max(max_latency_s_, l);
        ++latency_count_;
        if (latencies_s_.size() < kLatencyReservoir) {
            latencies_s_.push_back(l);
        } else {
            const uint64_t j = latencyReservoirSlot(config_.latency_seed,
                                                    latency_count_);
            if (j < kLatencyReservoir)
                latencies_s_[j] = l;
        }
    }
    if (min_version_ == 0 || snapshot_version < min_version_)
        min_version_ = snapshot_version;
    if (snapshot_version > max_version_)
        max_version_ = snapshot_version;
    if (shards_total_sum > 0) {
        sharded_requests_ += batch_size;
        shards_selected_sum_ += shards_selected_sum;
        shards_total_sum_ += shards_total_sum;
        ++sharded_batches_;
        batch_union_shards_sum_ += union_shards;
    }
}

ServeStats
RenderService::stats() const
{
    ServeStats s;
    // Counters and histograms live in the metrics registry now (the
    // PR-9 re-plumb); ServeStats keeps its shape as the read-side view.
    s.requests = m_requests_->value();
    s.batches = m_batches_->value();
    s.submitted = m_submitted_->value();
    s.shed_queue_full = m_shed_queue_full_->value();
    s.shed_deadline = m_shed_deadline_->value();
    s.rejected_shutdown = m_rejected_shutdown_->value();
    s.throttled_client = m_throttled_client_->value();
    s.queue_wait_p50_ms = m_queue_wait_ms_->percentile(50);
    s.queue_wait_p99_ms = m_queue_wait_ms_->percentile(99);
    s.queue_wait_mean_ms = m_queue_wait_ms_->mean();
    s.render_p50_ms = m_render_ms_->percentile(50);
    s.render_p99_ms = m_render_ms_->percentile(99);
    s.render_mean_ms = m_render_ms_->mean();
    std::vector<double> lat;
    double max_latency_s;
    uint64_t sel_sum, tot_sum;
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        s.min_snapshot_version = min_version_;
        s.max_snapshot_version = max_version_;
        s.sharded_requests = sharded_requests_;
        s.batch_occupancy = batch_occupancy_;
        if (sharded_batches_ > 0)
            s.mean_batch_shards =
                static_cast<double>(batch_union_shards_sum_)
                / static_cast<double>(sharded_batches_);
        sel_sum = shards_selected_sum_;
        tot_sum = shards_total_sum_;
        lat = latencies_s_;
        max_latency_s = max_latency_s_;
    }
    s.queue_depth = queue_.size();
    m_queue_depth_->set(static_cast<double>(s.queue_depth));
    s.elapsed_s = clock_.seconds();
    if (s.batches > 0)
        s.mean_batch =
            static_cast<double>(s.requests) / static_cast<double>(s.batches);
    if (s.elapsed_s > 0)
        s.requests_per_s = static_cast<double>(s.requests) / s.elapsed_s;
    if (s.sharded_requests > 0) {
        s.mean_shards_selected = static_cast<double>(sel_sum)
                               / static_cast<double>(s.sharded_requests);
        if (tot_sum > 0)
            s.mean_shard_frac_pruned =
                1.0
                - static_cast<double>(sel_sum)
                      / static_cast<double>(tot_sum);
    }
    if (!lat.empty()) {
        double sum = 0;
        for (double l : lat)
            sum += l;
        s.mean_ms = sum / lat.size() * 1e3;
        s.max_ms = max_latency_s * 1e3;    // exact, not sampled
        EmpiricalCdf cdf(std::move(lat));
        s.p50_ms = cdf.percentile(50.0) * 1e3;
        s.p99_ms = cdf.percentile(99.0) * 1e3;
    }
    return s;
}

} // namespace clm
