/**
 * @file
 * Per-tile forward compositing kernels, shared by the single-view
 * rasterizer (render/rasterizer.cpp) and the fused multi-view batch
 * pipeline (render/batch.cpp). Both entry points run the exact same
 * kernels over the exact same staged inputs, which is what makes the
 * batched forward bitwise identical to sequential renderForward calls.
 */

#ifndef CLM_RENDER_COMPOSITOR_HPP
#define CLM_RENDER_COMPOSITOR_HPP

#include <cstddef>
#include <vector>

#include "render/binning.hpp"
#include "render/rasterizer.hpp"

namespace clm {

struct TileStage;

namespace detail {

/**
 * Composite the tiles [@p t0, @p t1) of @p out's tile grid: stage each
 * tile's Gaussians from @p out (projected footprints + sorted
 * intersections + per-entry cuts), then run the kernel table's
 * compositor (RenderConfig::kernels, or the dispatched table). Empty
 * tiles write the background directly. Tiles touch disjoint pixels, so any parallel
 * split over tile ranges produces identical results; @p stage is the
 * calling worker's private staging scratch.
 *
 * @p stage_soa additionally fills the stage's SoA mirrors the backward
 * replay reads — the retained-staging mode of renderForwardBatch, which
 * lets renderBackwardBatch replay each tile without re-staging it. Staging
 * is pure data movement, so the composited pixels are unchanged.
 */
void compositeTileRange(const RenderConfig &cfg, const TileGrid &grid,
                        const std::vector<float> &alpha_cut,
                        const std::vector<float> &row_k, TileStage &stage,
                        size_t t0, size_t t1, RenderOutput &out,
                        bool stage_soa = false);

} // namespace detail

} // namespace clm

#endif // CLM_RENDER_COMPOSITOR_HPP
