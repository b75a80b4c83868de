/**
 * @file
 * Wall-clock timer used for the TSP time budget and harness reporting.
 */

#ifndef CLM_UTIL_TIMER_HPP
#define CLM_UTIL_TIMER_HPP

#include <chrono>

namespace clm {

/** Monotonic wall-clock stopwatch. */
class Timer
{
  public:
    Timer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Elapsed seconds since construction or the last reset(). */
    double seconds() const;

    /** Elapsed milliseconds since construction or the last reset(). */
    double millis() const { return seconds() * 1e3; }

    using Clock = std::chrono::steady_clock;

    /** When the stopwatch was constructed or last reset(). */
    Clock::time_point started() const { return start_; }

  private:
    Clock::time_point start_;
};

} // namespace clm

#endif // CLM_UTIL_TIMER_HPP
