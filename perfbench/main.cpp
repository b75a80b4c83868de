/**
 * @file
 * Workload driver of the end-to-end benchmark (see README.md).
 *
 * Usage:
 *   perfbench_e2e --workload train-city|train-dense
 *                 --seed N --seconds S [--trace 0|1] [--probes 0|1]
 *                 [--trace-out FILE]
 *
 * Runs one workload in-process through the public API, checks its
 * outputs, and prints one JSON object on the last line of stdout:
 * metrics (value + unit), named checks, attempted/failed counts and the
 * run context. Exits 1 when any check fails, 2 on bad arguments.
 * perfbench/run.py builds this binary, pins CLM_THREADS and shapes the
 * result into the benchmark's output contract.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "bench.hpp"
#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::RunRecord;

/**
 * Keeps a process pinned to one CPU from idling that CPU: a SCHED_IDLE
 * thread spins whenever nothing else of the process is runnable, so the
 * virtual CPU never halts and a request arriving at an idle service is
 * not charged the hypervisor's wake-up latency. SCHED_IDLE threads are
 * preempted as soon as any other thread wakes, so it takes next to no
 * time from the workload.
 */
class IdleSpinner
{
  public:
    IdleSpinner() : thread_([this] { run(); }) {}
    ~IdleSpinner()
    {
        stop_ = true;
        thread_.join();
    }
    IdleSpinner(const IdleSpinner &) = delete;
    IdleSpinner &operator=(const IdleSpinner &) = delete;

  private:
    void run()
    {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
    }

    std::atomic<bool> stop_{false};
    std::thread thread_;
};

bool
pinnedToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof(set), &set) == 0
           && CPU_COUNT(&set) == 1;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload train-city|train-dense "
                 "--seed N --seconds S [--trace 0|1] "
                 "[--probes 0|1] [--trace-out FILE]\n",
                 argv0);
    std::exit(2);
}

bool
parseFlag(const char *v)
{
    return std::strcmp(v, "0") != 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/** The run-context block of bench/common.hpp as a bare JSON object. */
std::string
contextJson()
{
    std::ostringstream os;
    clm::bench::writeJsonContext(os);
    std::string s = os.str();
    const size_t open = s.find('{');
    const size_t close = s.rfind('}');
    return s.substr(open, close - open + 1);
}

void
printRecord(const Options &opt, const RunRecord &rec)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
       << ", \"correct\": " << (rec.correct() ? "true" : "false")
       << ", \"attempted\": " << rec.attempted
       << ", \"failed\": " << rec.failed << ", \"checks\": {";
    bool first = true;
    for (const auto &c : rec.checks) {
        os << (first ? "" : ", ") << jsonString(c.first) << ": "
           << (c.second ? "true" : "false");
        first = false;
    }
    os << "}, \"metrics\": {";
    first = true;
    for (const auto &m : rec.metrics) {
        os << (first ? "" : ", ") << jsonString(m.first)
           << ": {\"value\": " << jsonNumber(m.second.value)
           << ", \"unit\": " << jsonString(m.second.unit) << "}";
        first = false;
    }
    os << "}, \"context\": " << contextJson();
    for (const std::string &e : rec.extra)
        os << ", " << e;
    os << "}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *flag = argv[i];
        const char *value = argv[++i];
        if (!std::strcmp(flag, "--workload"))
            opt.workload = value;
        else if (!std::strcmp(flag, "--seed"))
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (!std::strcmp(flag, "--seconds"))
            opt.seconds = std::strtod(value, nullptr);
        else if (!std::strcmp(flag, "--trace"))
            opt.trace = parseFlag(value);
        else if (!std::strcmp(flag, "--probes"))
            opt.probes = parseFlag(value);
        else if (!std::strcmp(flag, "--trace-out"))
            opt.trace_out = value;
        else
            usage(argv[0]);
    }
    if (opt.workload != "train-city" && opt.workload != "train-dense")
        usage(argv[0]);
    if (!(opt.seconds > 0 && opt.seconds <= 600))
        usage(argv[0]);

    std::unique_ptr<IdleSpinner> spinner;
    if (pinnedToOneCpu())
        spinner = std::make_unique<IdleSpinner>();
    RunRecord rec;
    perfbench::runWorkload(opt, rec);
    spinner.reset();
    printRecord(opt, rec);
    return rec.correct() ? 0 : 1;
}
