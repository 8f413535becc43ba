// Reference iso-surface extractor: the original serial marching-
// tetrahedra cell scan with hashed edge dedup and per-triangle geometric
// orientation. Not part of the production library: it is the oracle of
// the block extractor's differential tests (tests/mesh) and the in-run
// baseline of the extraction benchmarks (bench_fig4_fps, whose
// scripts/check_fig4.py gate compares against it, and
// bench_micro_extract). It emits the same triangle set as
// extractIsoSurface (equal under canonicalTriangleSoup) with a different
// vertex numbering.
#pragma once

#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/mesh/trimesh.hpp"
#include "semholo/mesh/voxelgrid.hpp"

namespace semholo::mesh {

TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid,
                                const IsoSurfaceOptions& options = {});
// Skips the cells of blocks 'sampler' certified surface-free; those cells
// emit no triangles, so the output is bit-identical to the dense scan.
TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid, const BlockSampler& sampler,
                                const IsoSurfaceOptions& options = {});

}  // namespace semholo::mesh
