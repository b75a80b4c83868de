/**
 * @file
 * SSE2 instance of the render kernel table. SSE2 is the x86-64
 * baseline, so no target pragma is needed — the TU simply forces the
 * SSE2 F8 backend. Absent (nullptr) on non-x86 targets.
 */

#include "render/simd_kernels.hpp"

#if defined(__x86_64__) || (defined(__i386__) && defined(__SSE2__))

#include "render/arena.hpp"
#include "render/binning.hpp"

#define CLM_F8_FORCE_SSE2 1
#include "math/simd.hpp"

namespace clm {

namespace {
#include "render/simd_kernels_impl.inl"
} // namespace

const RenderKernels *
renderKernelsSse2()
{
    static const RenderKernels table{SimdBackend::kSse2, "sse2",
                                     &kernelCompositeTile,
                                     &kernelBackwardTile,
                                     &kernelCullPrefilter};
    return &table;
}

} // namespace clm

#else

namespace clm {

const RenderKernels *
renderKernelsSse2()
{
    return nullptr;
}

} // namespace clm

#endif
