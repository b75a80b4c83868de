/**
 * @file
 * The unified offload data path (§4-§5): one asynchronous engine that owns
 * the pinned host pool, the double-buffered device staging rows, the
 * selective gather/cached-copy/RMW-scatter kernels, an optional prefetch
 * stage that stages microbatch k+1 on a worker thread while microbatch k
 * computes, and the §5.4 dedicated finalization (CPU Adam) thread with its
 * pinned signal slots. Every trainer is a thin policy over this engine:
 * CLM enables prefetch + caching, naive offloading disables both and
 * stages the whole model as a single microbatch. All stage wall times are
 * stamped into a StageTimings record that sim/metrics converts into the
 * Figure 13/15 measured shapes.
 */

#ifndef CLM_OFFLOAD_TRANSFER_ENGINE_HPP
#define CLM_OFFLOAD_TRANSFER_ENGINE_HPP

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "offload/cache_planner.hpp"
#include "offload/finalization.hpp"
#include "offload/pinned_pool.hpp"
#include "offload/selective_copy.hpp"
#include "sim/stage_timings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace clm {

class GaussianModel;
struct GaussianGrads;

/** Policy knobs distinguishing the trainers that share the engine. */
struct TransferEngineConfig
{
    /** Stage microbatch k+1 on a worker thread while k computes — the
     *  copy/compute overlap of §5.3. Staging order and arithmetic are
     *  identical to synchronous staging, so results are bit-equal. */
    bool prefetch = true;
    /** Run finalization on the dedicated CPU Adam thread (§5.4),
     *  handshaking through the pinned signal slots. */
    bool async_finalize = false;
    /** Number of pinned completion-signal slots (§5.4). */
    size_t signal_slots = 64;
};

/**
 * See the file comment. Batch protocol:
 *
 *   engine.beginBatch(ordered_sets, cache_plan, fin_schedule);
 *   for i in 0..B-1:
 *       DeviceBuffer &buf = engine.acquire(i);   // staged params, zeroed
 *                                                // grads, carried grads
 *       ... render from buf, accumulate into buf.gradRow(r) ...
 *       engine.release(i);       // RMW scatter + dispatch finalization
 *   engine.endBatch();           // drain prefetch + finalize threads
 *
 * Trainers without a finalization schedule (naive offloading) pass an
 * empty schedule and call finalizeNow() with the touched set instead.
 */
class TransferEngine
{
  public:
    /** Runs subset CPU Adam for a finalized set; returns rows updated.
     *  Supplied by the trainer (it owns the master model + optimizer). */
    using FinalizeFn = std::function<size_t(const std::vector<uint32_t> &)>;

    explicit TransferEngine(size_t n, TransferEngineConfig config = {});

    ~TransferEngine();

    TransferEngine(const TransferEngine &) = delete;
    TransferEngine &operator=(const TransferEngine &) = delete;

    /** Install the finalization callback (required before any batch that
     *  dispatches finalization). */
    void setFinalizeFn(FinalizeFn fn) { finalize_fn_ = std::move(fn); }

    /** Quiesce all engine threads and rebuild pool + buffers for a model
     *  of @p n Gaussians (densification / topology changes). */
    void reset(size_t n);

    /** Populate every pinned parameter record from @p model. */
    void uploadParams(const GaussianModel &model);

    /** @name Batch protocol (see class comment) */
    /// @{
    void beginBatch(std::vector<std::vector<uint32_t>> ordered_sets,
                    CachePlan cache, FinalizationSchedule fin);
    DeviceBuffer &acquire(size_t i);
    void release(size_t i);
    /** Dispatch finalization for an explicit set (inline or on the Adam
     *  thread per config) — the naive trainer's batch-end path. */
    void finalizeNow(std::vector<uint32_t> fin);
    void endBatch();
    /// @}

    /** Block until prefetch staging and the Adam thread are idle. Safe to
     *  call between batches (densification, checkpointing). */
    void drain();

    /** Per-batch record counters, valid after endBatch(). */
    struct Counters
    {
        size_t records_loaded = 0;    //!< Pinned->device gathers (PCIe).
        size_t cache_hits = 0;        //!< Device-to-device cached copies.
        size_t records_stored = 0;    //!< RMW gradient scatters (PCIe).
        size_t finalized = 0;         //!< Gaussians whose Adam step ran.
    };
    const Counters &counters() const { return counters_; }

    const PinnedPool &pool() const { return pool_; }
    PinnedPool &pool() { return pool_; }

    /** Total pinned bytes held (the Table 6 quantity). */
    size_t pinnedBytes() const { return pool_.bytes(); }

    /** Peak rows ever bound in one staging buffer (memory accounting). */
    size_t peakBufferRows() const { return peak_buffer_rows_; }

    /** Measured stage timers (accumulated; call between batches). */
    const StageTimings &timings() const { return timings_; }

    /** Record the time of a stage timed by @p since that ends now
     *  (also used for stages outside the engine, e.g. planning).
     *  @return the seconds recorded. */
    double addStageTime(TrainStage stage, const Timer &since);

    /** Discard accumulated stage timers. */
    void resetTimings();

  private:
    /** Stage microbatch @p i: bind, gather new records, copy cached rows
     *  from the previous buffer, zero gradient rows. Runs inline or on
     *  the staging worker. Never touches gradient rows of other buffers,
     *  so it is safe concurrently with compute on microbatch i-1. */
    void stage(size_t i);

    /** Dispatch finalization of @p fin (inline, or signal + enqueue for
     *  the Adam thread as in §5.4). */
    void dispatchFinalize(std::vector<uint32_t> fin, size_t slot);

    /** Run the finalize callback under the Finalize stage timer. */
    size_t runFinalize(const std::vector<uint32_t> &fin);

    /** §5.4 dedicated-thread loop: wait on the signal slot, run subset
     *  Adam, repeat. */
    void adamThreadLoop();

    /** Block until every queued finalization has been applied. */
    void drainAdamThread();

    void stopAdamThread();

    TransferEngineConfig config_;
    FinalizeFn finalize_fn_;
    PinnedPool pool_;
    std::array<DeviceBuffer, 2> buffers_;
    std::unique_ptr<ThreadPool> staging_pool_;    //!< 1 worker (prefetch).

    // Batch-scoped state.
    bool in_batch_ = false;
    std::vector<std::vector<uint32_t>> sets_;
    CachePlan cache_;
    FinalizationSchedule fin_;
    Counters counters_;
    Timer batch_timer_;
    Timer compute_timer_;        //!< Runs from acquire() to release().
    double pending_wait_ = 0;    //!< Staging stall of the acquired mb.
    double last_scatter_t_ = 0;     //!< Batch-clock time of last scatter.
    double last_finalize_t_ = 0;    //!< Batch-clock time of last Adam end.

    size_t peak_buffer_rows_ = 0;

    // Stage timers, written from the main, staging and Adam threads.
    StageTimings timings_;
    mutable std::mutex timings_mutex_;

    // Dedicated CPU Adam thread state (active when async_finalize).
    struct FinalizeJob
    {
        std::vector<uint32_t> fin;
        size_t signal_slot;
    };
    std::thread adam_thread_;
    std::mutex adam_mutex_;
    std::condition_variable adam_cv_;
    std::queue<FinalizeJob> adam_jobs_;
    size_t adam_pending_ = 0;
    bool adam_stop_ = false;
    std::atomic<size_t> async_finalized_{0};
};

/** Pack one Gaussian's gradient row into the 59-float pinned record
 *  layout: position, log-scale, rotation, SH, opacity. */
void packGradRecord(const GaussianGrads &grads, size_t i, float *out);

/** Unpack a 59-float gradient record into @p grads at row @p i. */
void unpackGradRecord(const float *in, GaussianGrads &grads, size_t i);

/** Accumulate the microbatch's backprop results into the staging buffer's
 *  gradient rows: for every bound row r, pack the gradient record of
 *  global index indices()[r] from @p grads and add it into gradRow(r) —
 *  the device-side gradient accumulation feeding the RMW scatter. */
void accumulateGradRows(const GaussianGrads &grads, DeviceBuffer &buf);

/** Same, restricted to the bound subset @p indices (ascending) — used
 *  when one staging binding hosts several rendered subsets (the naive
 *  trainer's per-view accumulation into the whole-model binding). */
void accumulateGradRows(const GaussianGrads &grads, DeviceBuffer &buf,
                        const std::vector<uint32_t> &indices);

} // namespace clm

#endif // CLM_OFFLOAD_TRANSFER_ENGINE_HPP
