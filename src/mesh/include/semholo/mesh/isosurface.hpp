// Iso-surface extraction from a sampled scalar field.
//
// We use marching tetrahedra (each cube split into 6 tetrahedra) rather
// than table-driven marching cubes over 256 cube cases with ambiguous
// configurations: the tetrahedral cases are unambiguous and the cost
// profile is the identical O(R^3) that the paper's Figure 4 measures.
// Extracted meshes are watertight wherever the field's zero level set
// lies strictly inside the grid.
//
// The production extractor is two-pass, tile-local and table-driven
// (see isosurface.cpp for the layout). Tiles are the smallest whole
// number of sampler blocks spanning at least 16 nodes per axis (8-node
// units stand in without a sampler); a tile is extracted when any of
// its sampler blocks is not certified surface-free.
//
//   pass 1  per-tile node sign rows (SIMD compares over the sampled
//           planes) -> active-cell lists + exact per-row vertex and
//           triangle counts;
//   pass 2  each crossing edge's position computed once per tile into a
//           tile-local table (vertices direct-indexed by (node, edge
//           direction) instead of hashed, written at offsets fixed by
//           prefix sums), then geometry emitted from a per-cube case
//           table, windings decided by replaying the legacy
//           per-triangle orientation test on the table's positions, bit
//           for bit.
//
// Output ordering is canonical — triangles in cell scan order, vertices
// numbered by first use in that triangle stream — so the mesh is
// byte-identical for any worker count AND any block decomposition, which
// is what keeps the dense/sparse and cached/fresh bit-identity
// guarantees intact (and keeps the index deltas the mesh codec feeds on
// as local as the legacy extractor's).
// The previous serial extractor lives outside the library, as
// extractIsoSurfaceLegacy in the semholo_support target
// (support/include/semholo/support/isosurface_legacy.hpp): the oracle of
// the differential tests and the within-run benchmark baseline.
#pragma once

#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/trimesh.hpp"
#include "semholo/mesh/voxelgrid.hpp"

namespace semholo::core {
class ThreadPool;
}  // namespace semholo::core

namespace semholo::mesh {

struct IsoSurfaceOptions {
    float isoValue{0.0f};
    // Merge epsilon-coincident vertices after extraction. The extractor
    // already emits exactly one vertex per crossing node edge, so shared
    // cell and block boundaries are welded by construction; this pass
    // only merges vertices from *distinct* edges that land on the same
    // point (a surface passing exactly through a grid node). Kept on by
    // default for user-supplied grids; the reconstruction pipeline opts
    // out (its smooth capsule fields never hit nodes exactly) and saves
    // re-hashing the full vertex set every frame.
    bool weldVertices{true};
    // Orient triangles so normals point towards decreasing field values
    // (outward for signed distance fields negative inside).
    bool orientOutward{true};
    // Worker pool the block-local extractor fans out over; nullptr runs
    // serially. Output is byte-identical for any worker count.
    core::ThreadPool* pool{nullptr};
    // Optional SoA batch evaluator paired with the field (must be
    // bit-identical per point — see BatchScalarField). When set, the
    // dense field convenience overload samples grid rows through it
    // instead of one std::function dispatch per node.
    BatchScalarField batch;
};

// Counters from one extraction pass. Block counts are in the sampler's
// block units (8-node units without a sampler) whatever the tile size,
// so they divide by FieldSampleStats::blocksTotal; a tile contributes
// the blocks inside it that are not certified surface-free.
struct ExtractStats {
    std::size_t blocksTotal{};           // blocks tiled over the grid
    std::size_t blocksExtracted{};       // live blocks in tiles holding >= 1 crossing edge
    std::size_t reusedTopologyBlocks{};  // live blocks in tiles whose sign rows are unchanged
    std::uint64_t activeCells{};         // mixed-sign cells emitted from
    std::uint64_t vertices{};            // crossing-edge vertices emitted
    std::uint64_t triangles{};           // table triangles emitted (pre-cleanup)
};

// Persistent per-tile topology cache for repeated extraction over one
// grid (recon::SparseReconstructor owns one per session). When a tile
// re-samples but its halo node signs are unchanged, its active-cell
// list, case configs and per-row counts are reused and only vertex
// positions are recomputed. Contents are an implementation detail of
// extractIsoSurface; callers only construct, pass and clear() it.
class IsoExtractCache {
public:
    void clear() {
        slot.clear();
        blocks.clear();
        res = {-1, -1, -1};
        epoch = 0;
    }

    // -- internal state (managed by extractIsoSurface) --
    struct Block {
        bool valid{false};
        std::uint32_t epoch{0};  // last extraction pass this tile was live in
        std::vector<std::uint64_t> signRows;  // halo sign bits, (z,y) rows
        std::vector<std::uint32_t> cells;     // packed active cells + configs
        std::vector<std::uint16_t> rowVerts;  // crossing edges per owned node row
        std::vector<std::uint16_t> rowTris;   // table triangles per owned cell row
        std::vector<std::uint32_t> segBaseV;  // per-row global vertex offsets
        std::vector<std::uint32_t> segBaseT;  // per-row global triangle offsets
        std::uint32_t vertexCount{0};
        std::uint32_t triangleCount{0};
    };
    // Grid fingerprint the cached topology is valid for.
    Vec3i res{-1, -1, -1};
    Vec3f boundsLo{}, boundsHi{};
    float isoValue{0.0f};
    int blockSize{0};                // tile edge in nodes
    std::uint32_t epoch{0};          // extraction pass counter
    std::vector<std::int32_t> slot;  // tile index -> blocks[] entry or -1
    std::vector<Block> blocks;
};

// Full-control entry point: extract the iso-surface of a sampled grid.
// 'sampler' (optional) must tile 'grid'; cells in blocks it certified
// surface-free are skipped — provably without changing the output.
// 'cache' (optional) enables sign-unchanged topology reuse across calls
// on the same grid. 'stats' (optional) receives the pass counters.
TriMesh extractIsoSurface(const VoxelGrid& grid, const BlockSampler* sampler,
                          const IsoSurfaceOptions& options,
                          IsoExtractCache* cache, ExtractStats* stats);

// Extract the iso-surface of a sampled grid.
TriMesh extractIsoSurface(const VoxelGrid& grid, const IsoSurfaceOptions& options = {});

// Sparse extraction: skip every cell inside a block the sampler
// certified surface-free (BlockSampler::surfaceFree). Certified blocks
// provably contain no iso-crossing anywhere in their guard region, so
// the dense pass would emit nothing from those cells; the result is
// bit-identical to the dense extraction while the cell scan drops from
// O(R^3) to the blocks near the surface. 'sampler' must tile 'grid'.
TriMesh extractIsoSurface(const VoxelGrid& grid, const BlockSampler& sampler,
                          const IsoSurfaceOptions& options = {});

// Convenience: sample 'field' over 'bounds' at cubic resolution
// 'resolution' and extract. This is the paper's "reconstruct mesh at
// output resolution R" operation (Figures 2 and 4). Dense; sampling
// goes through options.batch (SoA SIMD kernel) when set, one field
// call per node otherwise.
TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options = {});

// Sparse/parallel variant: samples through the block sampler (Lipschitz
// block pruning + worker-pool fan-out per 'sampling') before extraction.
// With a valid Lipschitz bound the result is bit-identical to the dense
// overload. 'stats' (optional) receives the sampling counters.
TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options,
                          const FieldSampleOptions& sampling,
                          FieldSampleStats* stats = nullptr);

}  // namespace semholo::mesh
