/**
 * @file
 * Model serialization: a compact binary checkpoint format (magic +
 * version + count + raw SoA parameters) and a PLY point-cloud export for
 * interoperability with standard 3DGS viewers' input conventions.
 */

#ifndef CLM_GAUSSIAN_IO_HPP
#define CLM_GAUSSIAN_IO_HPP

#include <string>

#include "gaussian/model.hpp"

namespace clm {

/**
 * Write @p model to @p path as a binary checkpoint.
 * Format: "CLMG" magic, uint32 version, uint64 count, then per attribute
 * the packed float arrays (position, log-scale, rotation, SH, opacity).
 */
void saveModel(const GaussianModel &model, const std::string &path);

/** Load a checkpoint written by saveModel(). Fatal (throws) on format
 *  errors, including a count the file's remaining bytes cannot hold —
 *  checked before anything is allocated. */
GaussianModel loadModel(const std::string &path);

/**
 * Export positions + DC colors + opacity as an ASCII PLY point cloud
 * (the COLMAP-style seed format 3DGS pipelines initialize from, §2.1).
 */
void exportPly(const GaussianModel &model, const std::string &path);

} // namespace clm

#endif // CLM_GAUSSIAN_IO_HPP
