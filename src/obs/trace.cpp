#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "util/logging.hpp"

namespace clm {

namespace {

// Thread-local trace context. The ring pointer is per (thread, tracer);
// t_ring_tracer holds the owning tracer's process-unique id_, NOT its
// address — a fresh Tracer constructed at a destroyed one's recycled
// address (stack-local tracers in back-to-back tests) would pass a
// pointer-equality check and write into the freed ring.
thread_local uint64_t t_trace_id = 0;
thread_local uint32_t t_depth = 0;

} // namespace

std::atomic<Tracer *> Tracer::g_enabled_{nullptr};

namespace {
thread_local void *t_ring = nullptr;
thread_local uint64_t t_ring_tracer = 0;    //!< Tracer::id_, 0 = none.
std::atomic<uint64_t> g_next_tracer_id{1};
} // namespace

Tracer::Tracer(size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      ring_capacity_(std::max<size_t>(1, ring_capacity)),
      epoch_(std::chrono::steady_clock::now())
{
}

Tracer::~Tracer()
{
    // A tracer must not be destroyed while it is the live target —
    // instrumented threads hold cached ring pointers into it.
    CLM_ASSERT(current() != this, "destroying the enabled tracer");
}

Tracer &Tracer::global()
{
    static Tracer instance;
    return instance;
}

void Tracer::enable(Tracer *t)
{
    g_enabled_.store(t, std::memory_order_release);
}

uint64_t Tracer::nowNs() const
{
    return toNs(std::chrono::steady_clock::now());
}

uint64_t Tracer::toNs(std::chrono::steady_clock::time_point t) const
{
    if (t <= epoch_)
        return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
}

Tracer::Ring *Tracer::threadRing()
{
    if (t_ring_tracer == id_)
        return static_cast<Ring *>(t_ring);
    // First record from this thread into this tracer: register a ring
    // under the mutex (once per thread per tracer), then cache it.
    // Rings are never freed before the tracer, so the cached pointer
    // stays valid across clear().
    std::lock_guard<std::mutex> lock(rings_mutex_);
    rings_.push_back(std::make_unique<Ring>());
    Ring *ring = rings_.back().get();
    ring->spans.resize(ring_capacity_);
    ring->tid = static_cast<uint32_t>(rings_.size());
    t_ring = ring;
    t_ring_tracer = id_;
    return ring;
}

void Tracer::record(const char *name, uint64_t trace_id, uint64_t t0_ns,
                    uint64_t t1_ns, uint32_t depth, SpanKind kind)
{
    Ring *ring = threadRing();
    SpanRecord &slot = ring->spans[ring->next];
    slot.name = name;
    slot.trace_id = trace_id;
    slot.t0_ns = t0_ns;
    slot.t1_ns = t1_ns;
    slot.tid = ring->tid;
    slot.depth = depth;
    slot.kind = kind;
    ring->next = ring->next + 1 == ring->spans.size() ? 0 : ring->next + 1;
    ring->total++;
}

void Tracer::clear()
{
    std::lock_guard<std::mutex> lock(rings_mutex_);
    for (auto &ring : rings_)
    {
        ring->next = 0;
        ring->total = 0;
    }
}

TraceStats Tracer::stats() const
{
    std::lock_guard<std::mutex> lock(rings_mutex_);
    TraceStats s;
    s.threads = rings_.size();
    for (const auto &ring : rings_)
    {
        const uint64_t held = std::min<uint64_t>(ring->total,
                                                 ring->spans.size());
        s.recorded += held;
        s.dropped += ring->total - held;
    }
    return s;
}

std::vector<SpanRecord> Tracer::snapshotSpans() const
{
    std::lock_guard<std::mutex> lock(rings_mutex_);
    std::vector<SpanRecord> out;
    for (const auto &ring : rings_)
    {
        const size_t cap = ring->spans.size();
        const size_t held = static_cast<size_t>(
            std::min<uint64_t>(ring->total, cap));
        // Oldest-first: when the ring has wrapped, the oldest live
        // span sits at `next` (the slot about to be overwritten).
        const size_t start = ring->total > cap ? ring->next : 0;
        for (size_t i = 0; i < held; ++i)
            out.push_back(ring->spans[(start + i) % cap]);
    }
    return out;
}

namespace {

/** Escape a span name for JSON (names are literals, but be safe). */
void writeJsonName(std::ostream &os, const char *s)
{
    os << '"';
    for (; *s; ++s)
    {
        if (*s == '"' || *s == '\\')
            os << '\\';
        os << (static_cast<unsigned char>(*s) < 0x20 ? ' ' : *s);
    }
    os << '"';
}

/** Microseconds with fixed 3-decimal precision, no locale surprises. */
void writeMicros(std::ostream &os, uint64_t ns)
{
    os << ns / 1000 << '.';
    const uint64_t frac = ns % 1000;
    os << static_cast<char>('0' + frac / 100)
       << static_cast<char>('0' + frac / 10 % 10)
       << static_cast<char>('0' + frac % 10);
}

} // namespace

void Tracer::writeChromeTrace(std::ostream &os) const
{
    const std::vector<SpanRecord> spans = snapshotSpans();
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const SpanRecord &s : spans)
    {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\": ";
        writeJsonName(os, s.name);
        if (s.kind == SpanKind::Thread)
        {
            // Complete event on the recording thread's track.
            os << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
               << ", \"ts\": ";
            writeMicros(os, s.t0_ns);
            os << ", \"dur\": ";
            writeMicros(os, s.t1_ns >= s.t0_ns ? s.t1_ns - s.t0_ns : 0);
            os << ", \"args\": {\"trace\": " << s.trace_id
               << ", \"depth\": " << s.depth << "}}";
        }
        else
        {
            // Async pair keyed by trace id: begins on one thread, ends
            // on another, so it cannot be an "X" (would corrupt the
            // per-thread duration stack in the viewer).
            os << ", \"cat\": \"request\", \"ph\": \"b\", \"pid\": 1, "
                  "\"tid\": "
               << s.tid << ", \"id\": " << s.trace_id << ", \"ts\": ";
            writeMicros(os, s.t0_ns);
            os << "},\n{\"name\": ";
            writeJsonName(os, s.name);
            os << ", \"cat\": \"request\", \"ph\": \"e\", \"pid\": 1, "
                  "\"tid\": "
               << s.tid << ", \"id\": " << s.trace_id << ", \"ts\": ";
            writeMicros(os, s.t1_ns);
            os << "}";
        }
    }
    os << "\n]}\n";
}

bool Tracer::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
    {
        warn("tracer: cannot open trace output '", path, "'");
        return false;
    }
    writeChromeTrace(out);
    return static_cast<bool>(out);
}

// --------------------------------------------------------------------------
// Thread-local context helpers

uint64_t currentTraceId()
{
    return t_trace_id;
}

TraceContext::TraceContext(uint64_t id) : saved_(t_trace_id)
{
    t_trace_id = id;
}

TraceContext::~TraceContext()
{
    t_trace_id = saved_;
}

ScopedSpan::ScopedSpan(const char *name)
    : ScopedSpan(name, t_trace_id)
{
}

ScopedSpan::ScopedSpan(const char *name, uint64_t trace_id)
    : name_(name), trace_id_(trace_id), tracer_(Tracer::current())
{
    if (!tracer_)
        return;
    t0_ns_ = tracer_->nowNs();
    depth_ = t_depth++;
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_)
        return;
    --t_depth;
    // Record against the tracer captured at ctor — if it was swapped
    // mid-scope (tests), this span still lands in a consistent ring
    // with a start time from the same epoch.
    tracer_->record(name_, trace_id_, t0_ns_, tracer_->nowNs(), depth_,
                    SpanKind::Thread);
}

StageClock::StageClock()
    : tracer_(Tracer::current()), last_(std::chrono::steady_clock::now())
{
    if (tracer_)
        last_ns_ = tracer_->nowNs();
}

double StageClock::lap(const char *name)
{
    if (tracer_)
    {
        const uint64_t now_ns = tracer_->nowNs();
        tracer_->record(name, t_trace_id, last_ns_, now_ns, t_depth,
                        SpanKind::Thread);
        const double secs = static_cast<double>(now_ns - last_ns_) * 1e-9;
        last_ns_ = now_ns;
        return secs;
    }
    const auto now = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return secs;
}

std::string traceEnvPath()
{
    const char *v = std::getenv("CLM_TRACE");
    return v ? std::string(v) : std::string();
}

} // namespace clm
