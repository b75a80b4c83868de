/**
 * @file
 * Test-only brute-force reference renderer: the independent oracle the
 * kernel tables' closeness checks compare against. Each pixel walks the
 * whole subset in (depth, subset position) order with std::exp and the
 * rasterizer's compositing rules — the 3-sigma tile-rect footprint, the
 * 0.99 alpha clamp, the alpha_min skip and the transmittance_min stop —
 * and none of the pipeline's optimisations: no key sort, no staging, no
 * power or row cuts, no pixel groups, no exp8. Only the projection
 * (projectGaussian) is shared with the pipeline.
 */

#ifndef CLM_TESTS_REFERENCE_RENDER_HPP
#define CLM_TESTS_REFERENCE_RENDER_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "gaussian/model.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/projection.hpp"
#include "render/rasterizer.hpp"

namespace clm::reference {

/** Forward render of @p subset (global indices) through @p camera. */
inline Image
render(const GaussianModel &model, const Camera &camera,
       const std::vector<uint32_t> &subset, const RenderConfig &cfg)
{
    std::vector<ProjectedGaussian> proj;
    proj.reserve(subset.size());
    for (uint32_t i : subset)
        proj.push_back(projectGaussian(model, i, camera, cfg.sh_degree));
    std::vector<size_t> order(proj.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return proj[a].depth < proj[b].depth;
    });

    const float ts = static_cast<float>(cfg.tile_size);
    Image img(camera.width(), camera.height());
    for (int py = 0; py < camera.height(); ++py) {
        for (int px = 0; px < camera.width(); ++px) {
            const float tx = static_cast<float>(px / cfg.tile_size);
            const float ty = static_cast<float>(py / cfg.tile_size);
            float t = 1.0f;
            Vec3 c{0, 0, 0};
            for (size_t s : order) {
                const ProjectedGaussian &g = proj[s];
                if (!g.valid || !(g.radius > 0.0f))
                    continue;
                // The pixel's tile must lie in the footprint's 3-sigma
                // tile rectangle.
                if (std::floor((g.mean2d.x - g.radius) / ts) > tx
                    || std::floor((g.mean2d.x + g.radius) / ts) < tx
                    || std::floor((g.mean2d.y - g.radius) / ts) > ty
                    || std::floor((g.mean2d.y + g.radius) / ts) < ty)
                    continue;
                const float dx = g.mean2d.x - (px + 0.5f);
                const float dy = g.mean2d.y - (py + 0.5f);
                const float power =
                    -0.5f * (g.conic_a * dx * dx + g.conic_c * dy * dy)
                    - g.conic_b * dx * dy;
                if (power > 0.0f)
                    continue;
                const float alpha =
                    std::min(0.99f, g.opacity * std::exp(power));
                if (alpha < cfg.alpha_min)
                    continue;
                const float t_next = t * (1.0f - alpha);
                if (t_next < cfg.transmittance_min)
                    break;
                c += g.color * (alpha * t);
                t = t_next;
            }
            img.setPixel(px, py, c + cfg.background * t);
        }
    }
    return img;
}

/** The linear loss sum(weights . image) of render(), in double. */
inline double
loss(const GaussianModel &model, const Camera &camera,
     const std::vector<uint32_t> &subset, const RenderConfig &cfg,
     const Image &weights)
{
    const Image img = render(model, camera, subset, cfg);
    const std::vector<float> &v = img.data();
    const std::vector<float> &w = weights.data();
    double acc = 0.0;
    for (size_t i = 0; i < v.size(); ++i)
        acc += double(w[i]) * v[i];
    return acc;
}

} // namespace clm::reference

#endif // CLM_TESTS_REFERENCE_RENDER_HPP
