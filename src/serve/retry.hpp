/**
 * @file
 * Client-side retry for shed/throttled serving responses. When the
 * RenderService is overloaded it resolves requests with an explicit
 * non-Ok ServeStatus instead of blocking or erroring (see
 * AdmissionConfig); a well-behaved client degrades those into retries
 * with capped exponential backoff. The jitter is *deterministic*: a
 * pure function of (seed, request key, attempt) via splitmix64, so a
 * fixed client schedule replays the same backoff sequence run-to-run —
 * same spirit as FaultPlan.
 *
 * Used by the clm_cli serve clients and the flythrough example;
 * submitWithRetry() is the synchronous convenience wrapper.
 */

#ifndef CLM_SERVE_RETRY_HPP
#define CLM_SERVE_RETRY_HPP

#include <cstdint>

#include "serve/render_service.hpp"

namespace clm {

/** Per-client retry accounting (aggregated by the caller). */
struct RetryStats
{
    uint64_t attempts = 0;     //!< submit() calls issued in total.
    uint64_t retries = 0;      //!< Attempts beyond the first.
    uint64_t gave_up = 0;      //!< Requests exhausted or non-retryable.
    double backoff_s = 0;      //!< Total time slept backing off.
};

/** Capped exponential backoff with deterministic seeded jitter. */
struct RetryPolicy
{
    int max_attempts = 4;      //!< Total attempts including the first.
    double base_s = 0.002;     //!< Backoff before the first retry.
    double cap_s = 0.050;      //!< Backoff ceiling.
    uint64_t seed = 0x7e747;   //!< Jitter seed (determinism key).

    /** Shed/throttled outcomes are worth retrying; RejectedShutdown is
     *  terminal (the service is gone); Ok never retries. */
    bool retryable(ServeStatus s) const;

    /**
     * Backoff before retry number @p attempt (1-based) of the request
     * identified by @p request_key: min(cap, base * 2^(attempt-1))
     * scaled by a jitter factor in [0.5, 1.0) that is a pure function
     * of (seed, request_key, attempt) — full determinism for a fixed
     * schedule, decorrelated across requests (no retry stampede).
     */
    double backoffSeconds(uint64_t request_key, int attempt) const;
};

/**
 * Submit @p camera and wait for the response, retrying shed/throttled
 * outcomes per @p policy (sleeping the policy's backoff between
 * attempts). Returns the final response — Ok on success, or the last
 * non-Ok status once attempts are exhausted or the failure is
 * terminal. @p request_key keys the deterministic jitter; pass
 * something stable per logical request (e.g. a frame index).
 */
RenderResponse submitWithRetry(RenderService &service,
                               const Camera &camera, uint64_t client_id,
                               const RetryPolicy &policy,
                               uint64_t request_key,
                               RetryStats *stats = nullptr);

} // namespace clm

#endif // CLM_SERVE_RETRY_HPP
