#include "serve/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/mix.hpp"

namespace clm {

namespace {

static_assert(sizeof(Vec3) == 3 * sizeof(float), "Vec3 must be packed");
static_assert(sizeof(Quat) == 4 * sizeof(float), "Quat must be packed");

/** 32-bit words per row: position, log-scale, rotation, SH, opacity. */
constexpr size_t kRowWords = 3 + 3 + 4 + kShDim + 1;
/** Row words as 64-bit words, zero-padded to whole groups of 4 lanes. */
constexpr size_t kRowWords64 = (kRowWords + 7) / 8 * 4;

/** Odd, so each multiply is a bijection mod 2^64. */
constexpr uint64_t kLaneMul = 0xff51afd7ed558ccdull;
constexpr uint64_t kSizeSeed = 0x5ca1ab1e0ddba11ull;

/**
 * Index-seeded hash of row @p i: four interleaved multiply-xor chains over
 * the row's 64-bit words, combined by an odd-weighted sum and finished by
 * SplitMix64. Each chain step, the sum and the finisher are bijections
 * of the part they mix in, so changing any one word always changes the
 * result.
 */
uint64_t
rowHash(const GaussianModel &model, size_t i)
{
    uint64_t words[kRowWords64] = {};
    unsigned char *dst = reinterpret_cast<unsigned char *>(words);
    std::memcpy(dst, &model.position(i), sizeof(Vec3));
    dst += sizeof(Vec3);
    std::memcpy(dst, &model.logScale(i), sizeof(Vec3));
    dst += sizeof(Vec3);
    std::memcpy(dst, &model.rotation(i), sizeof(Quat));
    dst += sizeof(Quat);
    std::memcpy(dst, model.sh(i), kShDim * sizeof(float));
    dst += kShDim * sizeof(float);
    const float op = model.rawOpacity(i);
    std::memcpy(dst, &op, sizeof(op));

    const uint64_t seed = splitmix64(i);
    uint64_t lane[4] = {seed, seed + 1, seed + 2, seed + 3};
    for (size_t k = 0; k < kRowWords64; k += 4)
        for (int l = 0; l < 4; ++l)
            lane[l] = (lane[l] ^ words[k + l]) * kLaneMul;
    return splitmix64(lane[0] + lane[1] * 3 + lane[2] * 5 + lane[3] * 7);
}

/** Copy rows @p rows of @p src into the same-sized @p dst. */
void
copyRows(GaussianModel &dst, const GaussianModel &src,
         const std::vector<uint32_t> &rows)
{
    for (uint32_t i : rows) {
        dst.position(i) = src.position(i);
        dst.logScale(i) = src.logScale(i);
        dst.rotation(i) = src.rotation(i);
        std::memcpy(dst.sh(i), src.sh(i), kShDim * sizeof(float));
        dst.rawOpacity(i) = src.rawOpacity(i);
    }
}

} // namespace

uint64_t
hashModelParams(const GaussianModel &model)
{
    uint64_t h = splitmix64(model.size() ^ kSizeSeed);
    for (size_t i = 0; i < model.size(); ++i)
        h += rowHash(model, i);
    return h;
}

void
SnapshotSlot::publish(const GaussianModel &model, int train_step,
                      const std::vector<uint32_t> *changed)
{
    // Reclaim the retired buffer when no reader still holds it; only
    // current_ is ever handed out, so a spare_ with use_count() == 1
    // (observed under the lock) can never be re-acquired concurrently.
    std::shared_ptr<ModelSnapshot> buf;
    std::shared_ptr<const ModelSnapshot> prev;
    uint64_t version;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (spare_ && spare_.use_count() == 1) {
            buf = std::const_pointer_cast<ModelSnapshot>(spare_);
            spare_.reset();
        }
        prev = current_;
        version = next_version_++;
    }

    // The copy and hash run outside the lock: readers keep serving the
    // previous snapshot untouched in the meantime. rows_ becomes the
    // rows where model differs from prev, ascending (at 300k rows, a
    // scattered 14% of them copy ~3x faster in row order than in random
    // order) — known only against a same-sized prev.
    const size_t n = model.size();
    const bool known = changed && prev && prev->model.size() == n;
    rows_.clear();
    if (known) {
        for (uint32_t i : *changed)
            CLM_ASSERT(i < n, "changed row ", i, " out of range (", n,
                       " rows)");
        rows_.assign(changed->begin(), changed->end());
        std::sort(rows_.begin(), rows_.end());
        rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
    }

    // A reclaimed spare is the snapshot before prev, so it lags model by
    // spare_rows_ (prev's changes) plus rows_ (this publish's).
    if (buf && known && spare_rows_known_ && buf->model.size() == n) {
        union_.clear();
        std::set_union(spare_rows_.begin(), spare_rows_.end(),
                       rows_.begin(), rows_.end(),
                       std::back_inserter(union_));
        copyRows(buf->model, model, union_);
    } else {
        if (!buf)
            buf = std::make_shared<ModelSnapshot>();
        buf->model = model;
    }
    buf->version = version;
    buf->train_step = train_step;

    // H(model) = H(prev) + sum over rows_ of (new - old row hash).
    if (known) {
        uint64_t h = prev->param_hash;
        for (uint32_t i : rows_)
            h += rowHash(model, i) - rowHash(prev->model, i);
        buf->param_hash = h;
    } else {
        buf->param_hash = hashModelParams(model);
    }

    // After the swap below, prev becomes the spare and differs from the
    // new current snapshot in exactly rows_.
    spare_rows_known_ = known;
    spare_rows_.swap(rows_);

    // Fault injection (tests): a slow/stalled publication. Readers are
    // unaffected structurally — they keep acquiring the previous
    // snapshot until the swap below.
    if (FaultInjector *f = faultInjector())
        f->inject(FaultPoint::PublishDelay);

    std::lock_guard<std::mutex> lock(mutex_);
    spare_ = std::move(current_);
    current_ = std::move(buf);
}

void
SnapshotSlot::setFaultInjector(FaultInjector *faults)
{
    std::lock_guard<std::mutex> lock(mutex_);
    faults_ = faults;
}

FaultInjector *
SnapshotSlot::faultInjector() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return faults_;
}

std::shared_ptr<const ModelSnapshot>
SnapshotSlot::acquire() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

uint64_t
SnapshotSlot::version() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_ ? current_->version : 0;
}

} // namespace clm
