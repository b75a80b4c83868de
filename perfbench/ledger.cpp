/**
 * @file
 * Per-layer ledger: folds the tracer's spans into per-name call counts,
 * total time and self time (a span's duration minus the part of it that
 * spans nested inside it on the same thread cover).
 */

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

using clm::SpanKind;
using clm::SpanRecord;

Ledger
buildLedger(const std::vector<SpanRecord> &spans)
{
    Ledger ledger;
    std::map<uint32_t, std::vector<const SpanRecord *>> by_thread;
    for (const SpanRecord &s : spans) {
        SpanTotals &t = ledger[s.name];
        t.calls++;
        const double ms = (s.t1_ns - s.t0_ns) * 1e-6;
        t.total_ms += ms;
        if (s.kind == SpanKind::Thread)
            by_thread[s.tid].push_back(&s);
        else
            t.self_ms += ms;
    }
    // Per thread, spans are properly nested or disjoint: sort by start
    // (outermost first on ties) and walk with a stack of open spans;
    // each span's duration is charged to its innermost open ancestor.
    for (auto &entry : by_thread) {
        std::vector<const SpanRecord *> &list = entry.second;
        std::sort(list.begin(), list.end(),
                  [](const SpanRecord *a, const SpanRecord *b) {
                      if (a->t0_ns != b->t0_ns)
                          return a->t0_ns < b->t0_ns;
                      return a->t1_ns > b->t1_ns;
                  });
        struct Open
        {
            const SpanRecord *span;
            uint64_t child_ns;
        };
        std::vector<Open> stack;
        auto close = [&ledger](const Open &o) {
            const uint64_t dur = o.span->t1_ns - o.span->t0_ns;
            ledger[o.span->name].self_ms +=
                (dur - std::min(dur, o.child_ns)) * 1e-6;
        };
        for (const SpanRecord *s : list) {
            while (!stack.empty() && stack.back().span->t1_ns <= s->t0_ns) {
                close(stack.back());
                stack.pop_back();
            }
            if (!stack.empty()) {
                // Clip to the parent: stage spans stamped from a
                // separate clock may overhang it by a few ns.
                const uint64_t end =
                    std::min(s->t1_ns, stack.back().span->t1_ns);
                stack.back().child_ns += end - s->t0_ns;
            }
            stack.push_back({s, 0});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    return ledger;
}

double
spanMeanMs(const Ledger &ledger, const char *name)
{
    auto it = ledger.find(name);
    return it == ledger.end() ? 0.0 : it->second.meanMs();
}

std::string
ledgerJson(const Ledger &ledger)
{
    std::ostringstream os;
    os << "\"ledger\": {";
    bool first = true;
    char buf[160];
    for (const auto &e : ledger) {
        std::snprintf(buf, sizeof(buf),
                      "{\"calls\": %llu, \"total_ms\": %.4f, "
                      "\"self_ms\": %.4f}",
                      static_cast<unsigned long long>(e.second.calls),
                      e.second.total_ms, e.second.self_ms);
        os << (first ? "" : ", ") << "\"" << e.first << "\": " << buf;
        first = false;
    }
    os << "}";
    return os.str();
}

} // namespace perfbench
