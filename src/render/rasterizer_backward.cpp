#include <algorithm>
#include <cstring>
#include <vector>

#include "render/arena.hpp"
#include "render/batch.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

namespace {

void
accumulate(ProjectionGrads &into, const ProjectionGrads &from)
{
    into.d_mean2d += from.d_mean2d;
    into.d_conic_a += from.d_conic_a;
    into.d_conic_b += from.d_conic_b;
    into.d_conic_c += from.d_conic_c;
    into.d_color += from.d_color;
    into.d_opacity += from.d_opacity;
}

/** Sum 8 lane partials left to right — THE fixed lane order of the
 *  deterministic lane reduction. */
float
sumLanes(const float *p)
{
    float s = p[0];
    for (int l = 1; l < 8; ++l)
        s += p[l];
    return s;
}

/** Reduce one staged entry's 8-lane gradient partials (the backward
 *  kernel's grad8 block) into a ProjectionGrads, lanes in fixed order. */
ProjectionGrads
reduceLanes(const float *g8)
{
    ProjectionGrads g;
    g.d_mean2d.x = sumLanes(g8 + kG8MeanX * 8);
    g.d_mean2d.y = sumLanes(g8 + kG8MeanY * 8);
    g.d_conic_a = sumLanes(g8 + kG8ConicA * 8);
    g.d_conic_b = sumLanes(g8 + kG8ConicB * 8);
    g.d_conic_c = sumLanes(g8 + kG8ConicC * 8);
    g.d_color.x = sumLanes(g8 + kG8ColorR * 8);
    g.d_color.y = sumLanes(g8 + kG8ColorG * 8);
    g.d_color.z = sumLanes(g8 + kG8ColorB * 8);
    g.d_opacity = sumLanes(g8 + kG8Opacity * 8);
    return g;
}

/** Replay tile @p t of @p fwd through @p kern's backward kernel from
 *  @p stage's SoA mirrors, accumulating into the zeroed 8-lane
 *  partials @p grad8 — the one replay call renderBackward and
 *  renderBackwardBatch share. */
void
replayTile(const RenderKernels &kern, const RenderConfig &cfg,
           const TileStage &stage, const RenderOutput &fwd,
           const Image &d_image, size_t t, float *grad8)
{
    const int w = d_image.width();
    const int h = d_image.height();
    const int ty = static_cast<int>(t) / fwd.tiles_x;
    const int tx = static_cast<int>(t) % fwd.tiles_x;
    BackwardTileArgs args;
    args.mean_x = stage.soa_mean_x.data();
    args.mean_y = stage.soa_mean_y.data();
    args.conic_a = stage.soa_conic_a.data();
    args.conic_b = stage.soa_conic_b.data();
    args.conic_c = stage.soa_conic_c.data();
    args.power_cut = stage.soa_power_cut.data();
    args.row_k = stage.soa_row_k.data();
    args.opacity = stage.soa_opacity.data();
    args.color_r = stage.soa_color_r.data();
    args.color_g = stage.soa_color_g.data();
    args.color_b = stage.soa_color_b.data();
    args.len = fwd.tile_ranges[t].size();
    args.px0 = tx * cfg.tile_size;
    args.px1 = std::min(args.px0 + cfg.tile_size, w);
    args.py0 = ty * cfg.tile_size;
    args.py1 = std::min(args.py0 + cfg.tile_size, h);
    args.width = w;
    args.alpha_min = cfg.alpha_min;
    args.background = cfg.background;
    args.final_t = fwd.final_t.data();
    args.n_contrib = fwd.n_contrib.data();
    args.d_image = d_image.data().data();
    args.grad8 = grad8;
    kern.backward_tile(args);
}

} // namespace

void
renderBackward(const GaussianModel &model, const Camera &camera,
               const RenderConfig &cfg, const RenderOutput &fwd,
               const Image &d_image, GaussianGrads &out)
{
    RenderArena scratch;
    renderBackward(model, camera, cfg, fwd, d_image, out, scratch);
}

void
renderBackward(const GaussianModel &model, const Camera &camera,
               const RenderConfig &cfg, const RenderOutput &fwd,
               const Image &d_image, GaussianGrads &out,
               RenderArena &arena)
{
    CLM_ASSERT(out.size() == model.size(),
               "gradient buffer must cover the full model");
    CLM_ASSERT(d_image.width() == camera.width()
                   && d_image.height() == camera.height(),
               "d_image size mismatch");

    const size_t n = fwd.projected.size();
    const size_t n_tiles = fwd.tile_ranges.size();

    // Per-subset-entry gradient accumulators for the footprint
    // quantities. A Gaussian can appear in several tiles; tiles are
    // processed in a FIXED chunk partition (the same whether execution
    // is serial or parallel) with one accumulator array per chunk,
    // reduced in chunk order afterwards — so the arithmetic, and hence
    // every output bit, never depends on thread scheduling.
    arena.grads.assign(n, ProjectionGrads{});
    const size_t n_chunks = std::max<size_t>(
        1, std::min<size_t>(n_tiles, ThreadPool::global().threads()));
    const size_t tiles_per_chunk =
        n_tiles == 0 ? 0 : (n_tiles + n_chunks - 1) / n_chunks;
    if (arena.stages.size() < n_chunks)
        arena.stages.resize(n_chunks);
    arena.grad_partials.resize(n_chunks);
    for (auto &partial : arena.grad_partials)
        partial.assign(n, ProjectionGrads{});

    // When replaying the forward activation still held by this arena,
    // the cut arrays for fwd.projected are already in place.
    if (&fwd != &arena.out || arena.cuts_alpha_min != cfg.alpha_min
        || arena.alpha_cut.size() != n) {
        computeAlphaCutPowers(fwd.projected, cfg.alpha_min, cfg.parallel,
                              arena.alpha_cut, arena.row_k);
        arena.cuts_alpha_min = cfg.alpha_min;
    }

    // Runtime-dispatched per-ISA kernel table (or the table cfg.kernels
    // forces). Must agree with the forward pass's table choice only in
    // spirit: every table runs the same IEEE op sequence, so the replay
    // recomputes the forward's alpha bits under any of them.
    const RenderKernels &kern =
        cfg.kernels ? *cfg.kernels : renderKernels();

    auto backward_chunk = [&](size_t c) {
        TileStage &stage = arena.stages[c];
        std::vector<ProjectionGrads> &acc = arena.grad_partials[c];
        const size_t t0 = c * tiles_per_chunk;
        const size_t t1 = std::min(t0 + tiles_per_chunk, n_tiles);
        for (size_t t = t0; t < t1; ++t) {
            const TileRange range = fwd.tile_ranges[t];
            const size_t len = range.size();
            if (len == 0)
                continue;
            // Stage the tile's hot fields so the replay streams
            // sequentially through memory. Shared with the forward pass
            // so the two stagings cannot desync.
            stage.stageFrom(fwd.projected, fwd.isect_vals, range,
                            arena.alpha_cut, arena.row_k,
                            /*stage_soa=*/true);

            // 8-pixel-lane replay: per-entry 8-lane gradient partials,
            // then the deterministic lane reduction.
            stage.grad8.resize(len * static_cast<size_t>(kG8Comps) * 8);
            std::memset(stage.grad8.data(), 0,
                        stage.grad8.size() * sizeof(float));
            replayTile(kern, cfg, stage, fwd, d_image, t,
                       stage.grad8.data());

            // Flush: reduce each staged entry's 8 lanes in fixed lane
            // order, then accumulate in staged order into this chunk's
            // per-subset array.
            for (size_t j = 0; j < len; ++j)
                accumulate(acc[fwd.isect_vals[range.begin + j]],
                           reduceLanes(stage.grad8.data()
                                       + j * static_cast<size_t>(kG8Comps)
                                             * 8));
        }
    };

    if (cfg.parallel && n_chunks > 1) {
        ThreadPool::global().parallelFor(
            n_chunks, [&](size_t begin, size_t end) {
                for (size_t c = begin; c < end; ++c)
                    backward_chunk(c);
            });
    } else {
        for (size_t c = 0; c < n_chunks; ++c)
            backward_chunk(c);
    }

    // Deterministic reduction in chunk order.
    for (const auto &partial : arena.grad_partials)
        for (size_t s = 0; s < n; ++s)
            accumulate(arena.grads[s], partial[s]);

    // Chain footprint gradients through the projection. Subset entries
    // map to distinct model rows, so this parallelizes safely.
    auto chain = [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s)
            projectGaussianBackward(model, camera, cfg.sh_degree,
                                    fwd.projected[s], arena.grads[s], out);
    };
    if (cfg.parallel && n >= kMinParallelSubset)
        ThreadPool::global().parallelFor(n, chain);
    else
        chain(0, n);
}

void
renderBackwardBatch(const GaussianModel &model,
                    const std::vector<Camera> &cameras,
                    const RenderConfig &cfg,
                    const std::vector<Image> &d_images, GaussianGrads &out,
                    BatchRenderArena &ba)
{
    const size_t B = cameras.size();
    CLM_ASSERT(B >= 1, "empty backward batch");
    CLM_ASSERT(d_images.size() == B, "one loss-gradient image per view");
    CLM_ASSERT(ba.views.size() >= B && ba.slots.size() == B,
               "renderBackwardBatch must follow renderForwardBatch on "
               "the same arena");
    CLM_ASSERT(out.size() == model.size(),
               "gradient buffer must cover the full model");

    const RenderKernels &kern =
        cfg.kernels ? *cfg.kernels : renderKernels();
    const size_t threads = ThreadPool::global().threads();

    // Per-view setup, replicating the sequential pass exactly: the cut
    // arrays (already in place from the forward into this arena — the
    // same guard renderBackward uses), and the FIXED per-view chunk
    // partition its reduction order is defined over.
    struct Task
    {
        uint32_t view;
        uint32_t chunk;
        uint32_t t0, t1;
    };
    std::vector<Task> tasks;
    for (size_t v = 0; v < B; ++v) {
        RenderArena &av = ba.views[v];
        const RenderOutput &fwd = av.out;
        const size_t n = fwd.projected.size();
        CLM_ASSERT(ba.slots[v].size() == n,
                   "arena union map does not match the forward batch");
        CLM_ASSERT(d_images[v].width() == cameras[v].width()
                       && d_images[v].height() == cameras[v].height(),
                   "d_image size mismatch");
        if (av.cuts_alpha_min != cfg.alpha_min
            || av.alpha_cut.size() != n) {
            computeAlphaCutPowers(fwd.projected, cfg.alpha_min,
                                  cfg.parallel, av.alpha_cut, av.row_k);
            av.cuts_alpha_min = cfg.alpha_min;
        }
        const size_t n_tiles = fwd.tile_ranges.size();
        const size_t n_chunks = std::max<size_t>(
            1, std::min<size_t>(n_tiles, threads));
        const size_t tiles_per_chunk =
            n_tiles == 0 ? 0 : (n_tiles + n_chunks - 1) / n_chunks;
        av.grad_partials.resize(n_chunks);
        if (ba.retain_staging) {
            CLM_ASSERT(av.stages.size() >= n_tiles,
                       "retained staging missing — render the batch "
                       "with retain_staging set first");
        } else if (av.stages.size() < n_chunks) {
            av.stages.resize(n_chunks);
        }
        for (size_t c = 0; c < n_chunks; ++c) {
            const size_t t0 = c * tiles_per_chunk;
            const size_t t1 = std::min(t0 + tiles_per_chunk, n_tiles);
            tasks.push_back({static_cast<uint32_t>(v),
                             static_cast<uint32_t>(c),
                             static_cast<uint32_t>(t0),
                             static_cast<uint32_t>(t1)});
        }
    }
    ba.grad8_scratch.resize(tasks.size());

    // --- 1. Replay: every (view, chunk) task runs the sequential
    // pass's per-chunk body — same tiles, same staged inputs, same
    // kernels, same flush order — as ONE task list (cross-view
    // parallelism). With retained staging the tile is already staged;
    // the 8-lane partial buffer is kept all-zero between tiles by the
    // flush, replacing the sequential pass's per-tile cold memset.
    auto run_task = [&](size_t ti) {
        const Task &task = tasks[ti];
        RenderArena &av = ba.views[task.view];
        const RenderOutput &fwd = av.out;
        const Image &d_image = d_images[task.view];
        std::vector<ProjectionGrads> &acc = av.grad_partials[task.chunk];
        acc.assign(fwd.projected.size(), ProjectionGrads{});
        std::vector<float> &g8 = ba.grad8_scratch[ti];
        for (size_t t = task.t0; t < task.t1; ++t) {
            const TileRange range = fwd.tile_ranges[t];
            const size_t len = range.size();
            if (len == 0)
                continue;
            TileStage &stage =
                av.stages[ba.retain_staging ? t : task.chunk];
            if (!ba.retain_staging)
                stage.stageFrom(fwd.projected, fwd.isect_vals, range,
                                av.alpha_cut, av.row_k,
                                /*stage_soa=*/true);

            const size_t need = len * static_cast<size_t>(kG8Comps) * 8;
            // Growth zero-fills; the existing prefix is zero by the
            // flush invariant below.
            if (g8.size() < need)
                g8.resize(need, 0.0f);
            replayTile(kern, cfg, stage, fwd, d_image, t, g8.data());

            // Flush in staged order with the fixed lane reduction,
            // re-zeroing each block while it is cache-hot (the
            // all-zero-between-tiles invariant).
            for (size_t j = 0; j < len; ++j) {
                float *blk =
                    g8.data() + j * static_cast<size_t>(kG8Comps) * 8;
                accumulate(acc[fwd.isect_vals[range.begin + j]],
                           reduceLanes(blk));
                std::memset(blk, 0,
                            static_cast<size_t>(kG8Comps) * 8
                                * sizeof(float));
            }
        }
    };
    if (cfg.parallel && tasks.size() > 1) {
        ThreadPool::global().parallelFor(
            tasks.size(), [&](size_t begin, size_t end) {
                for (size_t ti = begin; ti < end; ++ti)
                    run_task(ti);
            });
    } else {
        for (size_t ti = 0; ti < tasks.size(); ++ti)
            run_task(ti);
    }

    // --- 2. Per-view reduction in chunk order — element-wise over
    // (view, entry), so any parallel split is the same arithmetic.
    for (size_t v = 0; v < B; ++v) {
        RenderArena &av = ba.views[v];
        const size_t n = av.out.projected.size();
        av.grads.resize(n);
        poolForRange(n, cfg.parallel, kMinParallelSubset,
                     [&](size_t begin, size_t end) {
                         for (size_t s = begin; s < end; ++s) {
                             ProjectionGrads g{};
                             for (const auto &partial : av.grad_partials)
                                 accumulate(g, partial[s]);
                             av.grads[s] = g;
                         }
                     });
    }

    // --- 3. Projection chain, once per batch over the union of the
    // views' subsets. Distinct union entries touch distinct model rows
    // (parallel-safe); within an entry the per-view contributions
    // accumulate in ascending view order — exactly the sequential
    // loop's per-row accumulation order.
    const size_t n_union = ba.union_indices.size();
    ba.chain_offsets.assign(n_union + 1, 0);
    size_t total_pairs = 0;
    for (size_t v = 0; v < B; ++v) {
        for (uint32_t u : ba.slots[v])
            ++ba.chain_offsets[u + 1];
        total_pairs += ba.slots[v].size();
    }
    for (size_t u = 0; u < n_union; ++u)
        ba.chain_offsets[u + 1] += ba.chain_offsets[u];
    ba.chain_pairs.resize(total_pairs);
    ba.chain_fill.assign(ba.chain_offsets.begin(),
                         ba.chain_offsets.end() - 1);
    for (size_t v = 0; v < B; ++v) {
        const std::vector<uint32_t> &slots = ba.slots[v];
        for (size_t s = 0; s < slots.size(); ++s)
            ba.chain_pairs[ba.chain_fill[slots[s]]++] =
                (static_cast<uint64_t>(v) << 32) | s;
    }
    poolForRange(
        n_union, cfg.parallel, kMinParallelSubset,
        [&](size_t begin, size_t end) {
            for (size_t u = begin; u < end; ++u) {
                for (size_t e = ba.chain_offsets[u];
                     e < ba.chain_offsets[u + 1]; ++e) {
                    const uint64_t pair = ba.chain_pairs[e];
                    const size_t v = static_cast<size_t>(pair >> 32);
                    const size_t s =
                        static_cast<size_t>(pair & 0xffffffffu);
                    const RenderArena &av = ba.views[v];
                    projectGaussianBackward(model, cameras[v],
                                            cfg.sh_degree,
                                            av.out.projected[s],
                                            av.grads[s], out);
                }
            }
        });
}

} // namespace clm
