/**
 * @file
 * Reusable render scratch. One RenderArena owned by a long-lived object
 * (Trainer, Clm session, quality harness loop) lets every renderForward /
 * renderBackward call reuse its activation buffers (image, final_t,
 * n_contrib, projected footprints, flat intersection buffer) and working
 * scratch (binning keys, tile staging, backward gradient accumulators)
 * instead of reallocating them per view — the rasterizer is the system
 * hot path, called once per view per training step by every trainer.
 *
 * An arena is NOT thread-safe: one arena per concurrently rendering
 * caller. It is also purely an optimization — results are bitwise
 * identical to the arena-free overloads.
 */

#ifndef CLM_RENDER_ARENA_HPP
#define CLM_RENDER_ARENA_HPP

#include <cstddef>
#include <vector>

#include "render/binning.hpp"
#include "render/rasterizer.hpp"

namespace clm {

/**
 * Tile-local staging of the hot footprint fields (SoA): before the
 * per-pixel loop, one tile's Gaussians are packed compactly so forward
 * compositing and the backward replay stream sequentially through memory
 * instead of striding across the full ProjectedGaussian records.
 */
/** One staged footprint's hot test fields, packed into half a cache
 *  line so the compositing loops touch a single sequential stream (and
 *  keep one base pointer live instead of seven). */
struct alignas(32) StagedGaussian
{
    float mean_x, mean_y;          //!< Pixel-space center.
    float conic_a, conic_b, conic_c;
    /** Conservative alpha-cut power threshold (binning.hpp): pairs with
     *  power below it provably fail the alpha test, skipping the exp. */
    float power_cut;
    float opacity;
    /** Vertical conic curvature conic_c - conic_b^2 / conic_a: bounds
     *  the best power any pixel of a row can reach, so whole rows the
     *  footprint cannot touch are skipped without evaluating power. */
    float row_k;
};

struct TileStage
{
    std::vector<StagedGaussian> hot;   //!< Per-entry test fields.
    std::vector<Vec3> color;           //!< Touched only on contribution.

    /** @name SIMD batch staging (backward replay)
     * SoA mirrors of the staged fields, filled when stageFrom() is
     * asked to @p stage_soa: the backward kernel replays 8 pixels per
     * F8 batch straight from these arrays
     * (render/simd_kernels.hpp::BackwardTileArgs). Padded to a
     * multiple of 8 with entries whose power_cut is +inf, so padding
     * lanes can never pass the alpha-cut test. */
    /// @{
    std::vector<float> soa_mean_x, soa_mean_y;
    std::vector<float> soa_conic_a, soa_conic_b, soa_conic_c;
    std::vector<float> soa_power_cut, soa_row_k;
    std::vector<float> soa_opacity;
    std::vector<float> soa_color_r, soa_color_g, soa_color_b;
    /** Per-entry 8-lane gradient partials (kG8Comps components per
     *  entry, lane-major), accumulated by the backward kernel and
     *  reduced in fixed lane order — the deterministic lane reduction.
     *  Zeroed per tile by renderBackward. */
    std::vector<float> grad8;
    /// @}

    /** Pack one tile's Gaussians (the @p range slice of @p isect_vals)
     *  from @p projected plus the per-subset cut arrays into this
     *  stage — the single staging step shared by the forward composite
     *  and the backward replay, so the two passes can never desync.
     *  @p stage_soa additionally fills the SoA mirrors (the backward
     *  replay's input). */
    void stageFrom(const std::vector<ProjectedGaussian> &projected,
                   const std::vector<uint32_t> &isect_vals,
                   TileRange range, const std::vector<float> &alpha_cut,
                   const std::vector<float> &row_k,
                   bool stage_soa = false);

    /** Bytes currently held (for memory accounting). */
    size_t bytes() const;
};

/** Wall-clock stage breakdown of the last renderForward() into an
 *  arena (bench/micro_train_step reads it; see ISSUE's BENCH JSON). */
struct RenderStageTimes
{
    double project_s = 0;      //!< Subset projection.
    double bin_s = 0;          //!< Flat binning + sort + alpha cuts.
    double composite_s = 0;    //!< Per-tile compositing.
};

/** See file comment. */
class RenderArena
{
  public:
    /** Forward activation state, valid after renderForward(..., arena)
     *  until the next render into this arena. */
    RenderOutput out;

    /** @name Working scratch (contents are garbage between calls) */
    /// @{
    BinningScratch binning;
    /** Per-subset-entry alpha-cut power thresholds (exp skipping). */
    std::vector<float> alpha_cut;
    /** Per-subset-entry vertical conic curvature (row skipping). */
    std::vector<float> row_k;
    /** alpha_min the cut arrays were computed with (against this
     *  arena's `out.projected`); negative = not computed. Lets the
     *  backward pass skip recomputing the cuts when it replays the
     *  forward activation still held by this arena. */
    float cuts_alpha_min = -1.0f;
    /** Per-worker-chunk tile staging (forward and backward). */
    std::vector<TileStage> stages;
    /** Backward: per-subset-entry footprint gradients (reduced). */
    std::vector<ProjectionGrads> grads;
    /** Backward: per-chunk partial accumulators, reduced in chunk order
     *  so results never depend on thread scheduling. */
    std::vector<std::vector<ProjectionGrads>> grad_partials;
    /// @}

    /** Stage breakdown of the last renderForward() into this arena. */
    RenderStageTimes stage_times;

    /** Approximate bytes held by activation state + scratch. */
    size_t footprintBytes() const;
};

} // namespace clm

#endif // CLM_RENDER_ARENA_HPP
