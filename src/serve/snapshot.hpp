/**
 * @file
 * Train-time model snapshots: the hand-off point between the training
 * loop (which mutates the host-resident model every batch) and the
 * serving subsystem (which renders client views concurrently). The
 * trainer publishes an immutable copy of the model at step boundaries;
 * readers acquire the current snapshot by shared_ptr and can keep
 * rendering from it for as long as they like — they never observe torn
 * parameters, because a snapshot is copied while no training step is in
 * flight and is immutable afterwards.
 *
 * Publication is double-buffered and costs O(rows changed), not O(model):
 * the slot keeps the previously retired snapshot and reuses its buffers
 * for the next publish when no reader still holds it. That spare is two
 * versions old, so publish() copies into it only the rows the previous
 * publish changed plus the rows this one changed, and derives the new
 * param_hash from the current one by hashing just this publish's changed
 * rows, before and after (see hashModelParams). A publish with no
 * changed set, the first publish and a size change (densify) are the
 * "every row changed" case: a full copy and a full hash. A spare still
 * pinned by a reader forces a fresh buffer, so that publish copies every
 * row too. On the 300k-Gaussian train-city model, where a training
 * step changes ~14% of the rows, a publish costs ~8 ms instead of ~29 ms
 * for a full one (bench/micro_serve, one core).
 */

#ifndef CLM_SERVE_SNAPSHOT_HPP
#define CLM_SERVE_SNAPSHOT_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gaussian/model.hpp"

namespace clm {

class FaultInjector;

/** One immutable published model state. */
struct ModelSnapshot
{
    GaussianModel model;
    uint64_t version = 0;      //!< Publication sequence number (from 1).
    int train_step = 0;        //!< Trainer batches completed at publish.
    /** hashModelParams(model): a provenance stamp, so served frames can
     *  be traced back to exactly one published state (the
     *  snapshot-swap-under-load test keys on it). */
    uint64_t param_hash = 0;
};

/**
 * Provenance hash of @p model's raw parameters, a pure function of them:
 * a size term plus the wrapping (mod 2^64) sum over rows of a per-row
 * hash, seeded by the row index, of the row's 59 parameter words. The
 * sum makes it updatable in O(changed rows) —
 * H(new) = H(old) + sum over changed rows of (row(new) - row(old)) —
 * which is how publish() computes it; this function is the full-model
 * oracle. Changing any single parameter word always changes the hash.
 * It is not cryptographic: it tells published states apart, it does not
 * defend against crafted collisions.
 */
uint64_t hashModelParams(const GaussianModel &model);

/**
 * Single-publisher / multi-reader snapshot slot (see file comment).
 * publish() is meant to be called from one thread at a time (the
 * training loop); acquire() is safe from any number of threads.
 */
class SnapshotSlot
{
  public:
    /** Copy @p model into a (reused when possible) buffer, stamp it
     *  with the next version, @p train_step and its hash, and make it
     *  current. @p changed lists, in any order (duplicates allowed),
     *  every row where @p model differs from the model passed to the
     *  previous publish() on this slot; the copy and hash then cost
     *  O(|changed| + |previous changed|). nullptr means "every row may
     *  have changed". The copy runs outside the slot lock, so readers
     *  are never blocked for longer than a pointer swap. */
    void publish(const GaussianModel &model, int train_step,
                 const std::vector<uint32_t> *changed = nullptr);

    /** The current snapshot; nullptr before the first publish(). */
    std::shared_ptr<const ModelSnapshot> acquire() const;

    /** Version of the current snapshot (0 before the first publish). */
    uint64_t version() const;

    /** Fault injection, tests only: publish() runs the PublishDelay
     *  point (util/fault.hpp) after the model copy, *before* the swap
     *  that makes the new snapshot current — readers keep serving the
     *  previous snapshot for the duration. @p faults must outlive the
     *  slot (or be reset to null first); null disables. */
    void setFaultInjector(FaultInjector *faults);

  private:
    FaultInjector *faultInjector() const;

    mutable std::mutex mutex_;
    FaultInjector *faults_ = nullptr;
    std::shared_ptr<const ModelSnapshot> current_;
    /** Retired snapshot kept for buffer reuse (double buffering). */
    std::shared_ptr<const ModelSnapshot> spare_;
    uint64_t next_version_ = 1;

    /** Publisher-only state (publish() runs on one thread at a time),
     *  so it needs no lock: the rows where spare_ differs from current_
     *  (the last publish's changed rows, ascending; empty and not
     *  spare_rows_known_ after a full publish); and publish() scratch. */
    std::vector<uint32_t> spare_rows_;
    bool spare_rows_known_ = false;
    std::vector<uint32_t> rows_, union_;
};

} // namespace clm

#endif // CLM_SERVE_SNAPSHOT_HPP
