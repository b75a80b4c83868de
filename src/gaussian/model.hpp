/**
 * @file
 * Structure-of-arrays storage for a scene's Gaussians: raw (pre-activation)
 * learnable parameters, matching the reference 3DGS parameterization
 * (log-scale, raw-sigmoid opacity, unnormalized quaternion).
 */

#ifndef CLM_GAUSSIAN_MODEL_HPP
#define CLM_GAUSSIAN_MODEL_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gaussian/attributes.hpp"
#include "math/quat.hpp"
#include "math/vec.hpp"

namespace clm {

class Rng;

/**
 * Gradient buffers mirroring GaussianModel's parameter layout. Kept as a
 * separate aggregate so trainers can own several (e.g. per microbatch
 * accumulation buffers).
 */
struct GaussianGrads
{
    std::vector<Vec3> d_position;
    std::vector<Vec3> d_log_scale;
    std::vector<Quat> d_rotation;
    std::vector<float> d_sh;         //!< 48 per Gaussian.
    std::vector<float> d_opacity;    //!< 1 per Gaussian (raw, pre-sigmoid).

    /** Resize all buffers for @p n Gaussians and zero them. */
    void resize(size_t n);

    /** Zero all gradients without changing size. */
    void zero();

    /** Number of Gaussians covered. */
    size_t size() const { return d_position.size(); }

    /** Accumulate @p other into this buffer (sizes must match). */
    void accumulate(const GaussianGrads &other);

    /** Accumulate only the rows listed in @p indices from @p other. */
    void accumulateRows(const GaussianGrads &other,
                        const std::vector<uint32_t> &indices);

    /** Zero only the rows listed in @p indices. */
    void zeroRows(const std::vector<uint32_t> &indices);

    /** L2 norm of the position gradient of row @p i (densification cue). */
    float positionGradNorm(size_t i) const { return d_position[i].norm(); }
};

/**
 * The scene representation: N anisotropic 3D Gaussians stored as SoA.
 *
 * Parameters are stored *raw*; activations are applied on access:
 *  - world scale  = exp(log_scale)
 *  - world opacity = sigmoid(raw_opacity)
 *  - rotation     = normalize(quaternion)
 */
class GaussianModel
{
  public:
    GaussianModel() = default;

    /** Create @p n Gaussians with zeroed parameters. */
    explicit GaussianModel(size_t n) { resize(n); }

    /** Number of Gaussians. */
    size_t size() const { return position_.size(); }

    /** Resize to @p n Gaussians (new rows zero-initialized). */
    void resize(size_t n);

    /** Remove all Gaussians. */
    void clear() { resize(0); }

    /**
     * Append one Gaussian from raw parameters.
     * @return Index of the new Gaussian.
     */
    size_t append(const Vec3 &pos, const Vec3 &log_scale, const Quat &rot,
                  const float *sh48, float raw_opacity);

    /**
     * Remove the rows whose indices appear in @p sorted_indices (ascending,
     * unique). Remaining rows keep their relative order.
     */
    void removeRows(const std::vector<uint32_t> &sorted_indices);

    /** @name Raw parameter access */
    /// @{
    const Vec3 &position(size_t i) const { return position_[i]; }
    Vec3 &position(size_t i) { return position_[i]; }
    const Vec3 &logScale(size_t i) const { return log_scale_[i]; }
    Vec3 &logScale(size_t i) { return log_scale_[i]; }
    const Quat &rotation(size_t i) const { return rotation_[i]; }
    Quat &rotation(size_t i) { return rotation_[i]; }
    const float *sh(size_t i) const { return &sh_[i * kShDim]; }
    float *sh(size_t i) { return &sh_[i * kShDim]; }
    float rawOpacity(size_t i) const { return raw_opacity_[i]; }
    float &rawOpacity(size_t i) { return raw_opacity_[i]; }
    /// @}

    /** @name Activated (world-space) views */
    /// @{
    Vec3
    worldScale(size_t i) const
    {
        const Vec3 &s = log_scale_[i];
        return {std::exp(s.x), std::exp(s.y), std::exp(s.z)};
    }

    float
    worldOpacity(size_t i) const
    {
        return 1.0f / (1.0f + std::exp(-raw_opacity_[i]));
    }

    Quat unitRotation(size_t i) const { return rotation_[i].normalized(); }
    /// @}

    /**
     * World-space covariance Sigma = R S S^T R^T where S = diag(exp(ls)).
     */
    Mat3 covariance(size_t i) const;

    /**
     * Pack the 49 non-critical floats (SH then opacity) of Gaussian @p i
     * into @p out — the record format stored in pinned CPU memory (§5.2).
     */
    void packNonCritical(size_t i, float *out) const;

    /** Inverse of packNonCritical(). */
    void unpackNonCritical(size_t i, const float *in);

    /** Pack the 10 selection-critical floats (pos, log-scale, rot). */
    void packCritical(size_t i, float *out) const;

    /** Inverse of packCritical(). */
    void unpackCritical(size_t i, const float *in);

    /** True iff @p other holds bit-identical raw parameters (bytes are
     *  compared, so NaN payloads and signed zeros count). */
    bool bitwiseEquals(const GaussianModel &other) const;

    /** Total model-state bytes during training (params+grad+2 moments). */
    size_t modelStateBytes() const
    { return size() * kModelStateBytesPerGaussian; }

    /**
     * Initialize from a point cloud: unit quaternions, isotropic log-scale
     * from the mean nearest-neighbour spacing heuristic, DC-only SH from
     * @p colors, opacity sigmoid^-1(0.1) as in reference 3DGS.
     */
    static GaussianModel fromPointCloud(const std::vector<Vec3> &points,
                                        const std::vector<Vec3> &colors,
                                        float initial_scale);

    /** Random initialization of @p n Gaussians inside @p lo..hi. */
    static GaussianModel random(size_t n, const Vec3 &lo, const Vec3 &hi,
                                float initial_scale, Rng &rng);

  private:
    std::vector<Vec3> position_;
    std::vector<Vec3> log_scale_;
    std::vector<Quat> rotation_;
    std::vector<float> sh_;            //!< 48 floats per Gaussian.
    std::vector<float> raw_opacity_;   //!< 1 float per Gaussian.
};

/** sigmoid^-1, used to seed raw opacities from target world opacities. */
inline float
inverseSigmoid(float y)
{
    return std::log(y / (1.0f - y));
}

} // namespace clm

#endif // CLM_GAUSSIAN_MODEL_HPP
