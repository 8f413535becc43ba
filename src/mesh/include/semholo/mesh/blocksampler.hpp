// Block-sparse, parallel sampling of scalar fields into a VoxelGrid.
//
// Dense sampling evaluates the field at every grid node — the O(R^3)
// cost that makes Figure 4's FPS collapse cubically. For a field with a
// known Lipschitz bound L (|f(p) - f(q)| <= L*|p-q| + J, J covering any
// bounded discontinuities), whole blocks of nodes can be certified
// surface-free from ONE evaluation at the block center c:
//
//     |f(c)| > L * rGuard + J + margin
//
// where rGuard is the half-diagonal of the block's node region expanded
// by one cell on every side. The expansion is what makes skipping
// *exact*: every extraction cell that reads any node owned by a skipped
// block lies entirely inside the certified guard region, where the true
// field provably keeps the sign of f(c) — so the dense path would emit
// no triangles from those cells either. Skipped nodes are filled with
// f(c) (correct sign), sampled nodes are exact, and the extracted
// iso-surface is bit-identical to the dense path's.
//
// Work fans out over a core::ThreadPool. Each block's values depend only
// on the field and the block, never on scheduling, so results are
// deterministic across worker counts.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "semholo/mesh/voxelgrid.hpp"

namespace semholo::core {
class ThreadPool;
}  // namespace semholo::core

namespace semholo::mesh {

struct FieldSampleOptions {
    // Nodes per block edge. 8 balances pruning granularity against
    // per-block overhead for body-scale grids.
    int blockSize{8};
    // Worker pool to fan blocks out over; nullptr runs serially (still
    // pruned). The pool is borrowed, not owned.
    core::ThreadPool* pool{nullptr};
    // Enable coarse-to-fine block pruning. Disable to force a dense
    // (but still parallel) pass, e.g. for fields without a usable bound.
    bool blockPruning{true};
    // Conservative Lipschitz bound L of the field. 1.0 is exact for any
    // metric SDF (min / smooth-min of capsule distances); fields with
    // domain warps or displacement maps must widen it (see
    // body::makeBodyField).
    float lipschitz{1.0f};
    // Additive slack J on the certification bound: bounded discontinuity
    // jumps plus any temporal-cache tolerance the caller relies on.
    float margin{0.0f};
    // Optional analytic certificate: certificate(center, radius) returns
    // true when the field provably has no iso-crossing within 'radius'
    // of 'center'. When set it replaces the Lipschitz test — composite
    // fields (the body's smooth-min capsule fold) certify far tighter
    // from their own geometry than from global L/J constants, which get
    // inflated by worst-case capsule cones and expression warps that
    // only act near the face. The caller must fold any temporal-cache
    // tolerance into the certificate itself.
    std::function<bool(geom::Vec3f center, float radius)> certificate;
    // Optional SoA batch evaluator paired with the field (must return
    // bit-identical values — see BatchScalarField). When set, fully
    // sampled blocks evaluate all their nodes in one call instead of one
    // std::function dispatch per node.
    BatchScalarField batch;
    // Test certificates on a coarse-to-fine octree of block nodes before
    // touching individual blocks: one certificate test at depth k covers
    // up to 8^k blocks, and a certified coarse node fills its whole
    // subtree from a single field probe. Only engages when an analytic
    // certificate is set; verdicts stay exact (a coarse node's ball
    // contains every descendant block's guard region).
    bool hierarchical{true};
};

struct FieldSampleStats {
    std::size_t blocksTotal{};
    std::size_t blocksSampled{};    // fully evaluated this pass
    std::size_t blocksSkipped{};    // certified surface-free, filled
    std::size_t blocksCached{};     // reused from a previous pass
    // Of blocksSkipped, how many were filled from a certified octree
    // ancestor rather than their own leaf test.
    std::size_t blocksCoarseFilled{};
    std::uint64_t nodesEvaluated{}; // field evaluations incl. block centers
    std::uint64_t nodesTotal{};     // grid nodes the dense path would touch
    std::uint64_t certTests{};      // analytic certificate invocations

    void merge(const FieldSampleStats& other);
    double evalFraction() const {
        return nodesTotal > 0
                   ? static_cast<double>(nodesEvaluated) /
                         static_cast<double>(nodesTotal)
                   : 0.0;
    }
};

// Tiles a VoxelGrid into cubical node blocks and samples a field into it
// sparsely. Block geometry is stable for the grid's lifetime, so callers
// implementing temporal caches can address blocks by index across
// frames (see recon::SparseReconstructor).
class BlockSampler {
public:
    BlockSampler(VoxelGrid& grid, int blockSize);

    int blockCount() const { return blocks_.x * blocks_.y * blocks_.z; }
    Vec3i blockGrid() const { return blocks_; }
    int blockSize() const { return blockSize_; }

    // World-space AABB of the block's guard region (node region expanded
    // by one cell): the region whose field values the block's skip
    // certificate must cover, and the region a bone must clear for the
    // temporal cache to keep the block.
    geom::AABB blockGuardBounds(int block) const;
    Vec3f blockCenter(int block) const;
    // Half-diagonal of the guard region (the rGuard of the skip bound).
    float guardRadius() const { return guardRadius_; }

    // Sample 'field' into the grid. When 'dirty' is non-null it must
    // have blockCount() entries; blocks with dirty[b] == 0 are left
    // untouched and counted as blocksCached. Every dirty block is either
    // fully evaluated or, if certifiably surface-free under the options'
    // Lipschitz bound, filled with its center value.
    FieldSampleStats sample(const ScalarField& field,
                            const FieldSampleOptions& options,
                            const std::vector<std::uint8_t>* dirty = nullptr);

    // Per-block surface-free verdicts from the most recent pass(es):
    // 1 when the block was skip-certified (no iso-crossing anywhere in
    // its guard region), 0 when it was fully sampled or never processed.
    // Cached blocks keep the flag from the pass that last processed
    // them — valid as long as the caller's cache invariant holds (the
    // certificate it sampled with covered any drift it allows). Sparse
    // extraction uses this to visit only cells that can hold surface.
    const std::vector<std::uint8_t>& surfaceFree() const { return surfaceFree_; }

    // Flattened block index of the block owning cell (cx, cy, cz) — the
    // block whose guard region wholly contains that cell.
    int cellBlock(int cx, int cy, int cz) const {
        return (cx / blockSize_) +
               blocks_.x * ((cy / blockSize_) + blocks_.y * (cz / blockSize_));
    }

    // Bounding ball of an octree node's block range: contains the guard
    // region of every block in [lo, hi] (block coords, inclusive), so a
    // certificate that holds on the ball holds for every descendant.
    void nodeBall(Vec3i lo, Vec3i hi, Vec3f& center, float& radius) const;

private:
    struct BlockRange {
        Vec3i nodeLo;  // first owned node (inclusive)
        Vec3i nodeHi;  // last owned node (inclusive)
    };
    BlockRange blockRange(int block) const;
    Vec3i blockCoord(int block) const;
    int blockIndex(Vec3i c) const {
        return c.x + blocks_.x * (c.y + blocks_.y * c.z);
    }
    std::uint64_t ownedNodes(int block) const;
    void fillBlock(int block, float value);
    // Field values at 'centers': one options.batch call when set (the
    // batch is bit-identical per point), one field call each otherwise.
    void probeCenters(const std::vector<Vec3f>& centers, const ScalarField& field,
                      const FieldSampleOptions& options,
                      std::vector<float>& values) const;
    // Evaluate or fill one block. A block the analytic certificate
    // clears is appended to 'certified' and filled by the caller.
    void processBlock(int block, const ScalarField& field,
                      const FieldSampleOptions& options, FieldSampleStats& stats,
                      std::vector<int>& certified);
    // A coarse octree node's fill for one dirty block beneath it: the
    // value is probes[probe] of the descent.
    struct CoarseFill {
        int block;
        std::size_t probe;
    };
    // Items [begin, end) of the sampling pass: index i < work.size() is
    // leaf block work[i], the rest are coarse fills. Leaf blocks the
    // certificate clears are filled at the end, from one probe batch.
    void processRange(const std::vector<int>& work, const std::vector<CoarseFill>& fills,
                      const std::vector<float>& probeValues, std::size_t begin,
                      std::size_t end, const ScalarField& field,
                      const FieldSampleOptions& options, FieldSampleStats& stats);
    // Coarse-to-fine certificate descent: appends blocks needing a leaf
    // pass to 'work', coarse fills to 'fills' and each certified node's
    // probe point to 'probes'.
    void descend(Vec3i lo, Vec3i hi, const std::vector<std::uint8_t>& dirtyLeaf,
                 const FieldSampleOptions& options, FieldSampleStats& stats,
                 std::vector<int>& work, std::vector<CoarseFill>& fills,
                 std::vector<Vec3f>& probes);

    VoxelGrid& grid_;
    int blockSize_{8};
    Vec3i blocks_{};
    float guardRadius_{0.0f};
    std::vector<std::uint8_t> surfaceFree_;
};

}  // namespace semholo::mesh
