/**
 * @file
 * Span-based request tracer. A request gets a trace ID when
 * RenderService::submit mints one; every stage it passes through
 * (admission, queue wait, worker dequeue, shard routing, fused
 * pipeline stages, k-way merge, compositing — plus the training-side
 * forward/loss/backward/adam/publish) records a span into a per-thread
 * fixed-capacity ring buffer. There are NO locks on the recording
 * path: each thread owns its ring, registered once under a mutex and
 * cached in a thread_local pointer; when a ring wraps, the oldest
 * spans are overwritten and counted as dropped.
 *
 * Toggling: the tracer is OFF by default. Tracer::enabled() is one
 * relaxed atomic load — the entire cost of the layer when disabled —
 * so instrumentation stays compiled into release hot paths. Tracing
 * only reads clocks and writes ring slots; it never changes any
 * arithmetic, ordering, or allocation the traced code performs, which
 * is why every bitwise-identity invariant holds with tracing on
 * (asserted in tests/test_obs.cpp and bench/micro_serve.cpp).
 *
 * Export: writeChromeTrace() emits Chrome trace-event JSON
 * (chrome://tracing, Perfetto). Thread-scoped spans become "X"
 * complete events on their thread's track; request-lifetime spans that
 * START on one thread and END on another (queue wait: enqueued by the
 * client, dequeued by a worker) become "b"/"e" async event pairs keyed
 * by trace ID, which the viewers render as a separate async track —
 * emitting those as "X" would corrupt per-thread stack nesting.
 *
 * enable(toggle)/clear() require quiescence: no thread may be
 * recording concurrently (call before starting / after joining the
 * workload threads).
 */

#ifndef CLM_OBS_TRACE_HPP
#define CLM_OBS_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace clm {

class MetricsRegistry;

/** How a span is exported (see file comment). */
enum class SpanKind : uint8_t {
    Thread,    //!< Begins and ends on one thread ("X" complete event).
    Async,     //!< Crosses threads; keyed by trace ID ("b"/"e" pair).
};

/** One recorded span. `name` must be a string literal (or otherwise
 *  outlive the tracer) — rings store the pointer, never a copy. */
struct SpanRecord
{
    const char *name = nullptr;
    uint64_t trace_id = 0;    //!< 0 = not request-scoped (e.g. training).
    uint64_t t0_ns = 0;       //!< Nanoseconds since tracer epoch.
    uint64_t t1_ns = 0;
    uint32_t tid = 0;         //!< Recording thread (filled on snapshot).
    uint32_t depth = 0;       //!< Nesting depth on the recording thread.
    SpanKind kind = SpanKind::Thread;
};

/** Aggregate tracer health (recorded/dropped totals across rings). */
struct TraceStats
{
    uint64_t recorded = 0;    //!< Spans currently held in rings.
    uint64_t dropped = 0;     //!< Spans overwritten by ring wrap.
    uint64_t threads = 0;     //!< Rings (threads that ever recorded).
};

/**
 * The process-wide tracer (see file comment). All recording goes
 * through Tracer::global(); tests may construct private instances.
 */
class Tracer
{
  public:
    static constexpr size_t kDefaultRingCapacity = 1 << 14;

    explicit Tracer(size_t ring_capacity = kDefaultRingCapacity);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    static Tracer &global();

    /** Is the GLOBAL tracer recording? One relaxed load — the only
     *  cost instrumentation pays when tracing is off. */
    static bool enabled()
    { return g_enabled_.load(std::memory_order_relaxed) != nullptr; }

    /** Route ScopedSpan/StageClock recording to @p t (nullptr = off).
     *  Requires quiescence. Only one tracer can be live at a time. */
    static void enable(Tracer *t);

    /** The currently enabled tracer (nullptr when off). */
    static Tracer *current()
    { return g_enabled_.load(std::memory_order_relaxed); }

    /** Nanoseconds since this tracer's construction (monotonic). */
    uint64_t nowNs() const;

    /** @p t on this tracer's clock (0 if before its construction). */
    uint64_t toNs(std::chrono::steady_clock::time_point t) const;

    /** Append a span to the calling thread's ring (lock-free after
     *  the thread's first record). */
    void record(const char *name, uint64_t trace_id, uint64_t t0_ns,
                uint64_t t1_ns, uint32_t depth = 0,
                SpanKind kind = SpanKind::Thread);

    /** Drop all recorded spans (indices reset; rings stay allocated
     *  and registered). Requires quiescence. */
    void clear();

    TraceStats stats() const;

    /** Every live span, oldest-first per ring, tagged with its ring's
     *  thread id. Requires quiescence. */
    std::vector<SpanRecord> snapshotSpans() const;

    /** Chrome trace-event JSON (see file comment). Requires
     *  quiescence. */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace to @p path; returns false if unwritable. */
    bool writeChromeTraceFile(const std::string &path) const;

  private:
    struct Ring
    {
        std::vector<SpanRecord> spans;    //!< Fixed capacity, wraps.
        size_t next = 0;                  //!< Next write slot.
        uint64_t total = 0;               //!< Spans ever recorded.
        uint32_t tid = 0;                 //!< Stable per-tracer id.
    };

    Ring *threadRing();

    static std::atomic<Tracer *> g_enabled_;

    /** Process-unique, never reused. Thread-local ring caches key on
     *  this rather than the Tracer's address: a new tracer constructed
     *  at a recycled address (stack-local tracers in tests) must not
     *  alias a destroyed tracer's cached rings. */
    const uint64_t id_;
    size_t ring_capacity_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex rings_mutex_;    //!< Guards rings_ (not slots).
    std::vector<std::unique_ptr<Ring>> rings_;
};

/** The calling thread's active trace ID (0 outside TraceContext). */
uint64_t currentTraceId();

/**
 * Scopes the thread-local trace ID: spans recorded inside inherit
 * @p id. Saves and restores the previous value, so nested request
 * handling (batch render inside worker loop) composes.
 */
class TraceContext
{
  public:
    explicit TraceContext(uint64_t id);
    ~TraceContext();

    TraceContext(const TraceContext &) = delete;
    TraceContext &operator=(const TraceContext &) = delete;

  private:
    uint64_t saved_;
};

/**
 * RAII thread-scoped span: records [ctor, dtor] under the current
 * trace ID at the thread's current nesting depth. Captures
 * enabled-at-construction so an enable() racing the scope cannot emit
 * a span with a garbage start time.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    /** Same, but under an explicit trace ID instead of the ambient. */
    ScopedSpan(const char *name, uint64_t trace_id);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    uint64_t trace_id_ = 0;
    uint64_t t0_ns_ = 0;
    uint32_t depth_ = 0;
    Tracer *tracer_ = nullptr;    //!< Non-null only if live at ctor.
};

/**
 * Sequential stage stopwatch — the consolidation point for the old
 * `Timer stage_timer; ... seconds(); reset()` pattern (rasterizer /
 * batch / shard_batch stage timers) and sim/stage_timings. lap(name)
 * returns seconds since the previous lap (or construction) and, when
 * tracing is live, also records that interval as a span — one
 * mechanism feeding both the legacy stage_times structs and the
 * tracer.
 */
class StageClock
{
  public:
    StageClock();

    /** Seconds since the last lap; records a span named @p name over
     *  that interval when tracing is enabled. */
    double lap(const char *name);

  private:
    Tracer *tracer_;             //!< Live tracer at ctor (or null).
    uint64_t last_ns_ = 0;       //!< Tracer clock (when live).
    std::chrono::steady_clock::time_point last_;    //!< Fallback clock.
};

/** Value of the CLM_TRACE env var (a trace output path), or "" when
 *  unset/empty. Setting it makes clm_cli / the benches enable the
 *  global tracer and dump a Chrome trace there on exit. */
std::string traceEnvPath();

} // namespace clm

#endif // CLM_OBS_TRACE_HPP
