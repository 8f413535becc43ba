// The parametric body surface model.
//
// Two complementary representations, mirroring the paper's pipeline:
//
//  * BodyModel — an explicit template mesh built once per subject (shape
//    betas), deformed per frame with linear blend skinning. This plays
//    the role of the ground-truth capture mesh ("textured mesh generated
//    from RGB-D data", Fig. 2a): it is what the traditional pipeline
//    streams and what reconstructions are scored against.
//
//  * bodySignedDistance — an implicit skeleton-conditioned field for a
//    given pose. The keypoint-reconstruction path (X-Avatar stand-in)
//    evaluates this field on an R^3 grid and runs iso-surface extraction,
//    reproducing the resolution/quality/FPS trade-offs of Figs. 2 and 4.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "semholo/body/pose.hpp"
#include "semholo/body/skeleton.hpp"
#include "semholo/mesh/trimesh.hpp"
#include "semholo/mesh/voxelgrid.hpp"

namespace semholo::body {

using mesh::ScalarField;
using mesh::TriMesh;

// Smooth-minimum blending radius for the implicit body field; larger
// values merge limbs more organically.
inline constexpr float kFieldBlend = 0.02f;

struct BodyFieldOptions {
    // Add high-frequency clothing-fold displacement to the surface. The
    // ground-truth capture template enables this; reconstruction from
    // keypoints cannot (keypoints carry no garment information), which
    // is exactly the quality gap Figure 2 reports ("cannot recover the
    // details of the clothes, such as folds").
    bool clothingDetail{false};
    float clothingAmplitude{0.008f};
    // Per-query capsule pruning (makeBodyField only): skip capsules whose
    // conservative lower-bound distance proves the smooth-min blend would
    // leave the running value unchanged. The skip is mathematically exact
    // but differs from the unpruned fold by at most one rounding step per
    // skipped capsule; disable when bit-reproducible sampling against the
    // legacy field is required.
    bool bonePruning{true};
};

// Signed distance to the posed body surface: negative inside. Built from
// shape-scaled capsules along every bone plus head/torso ellipsoids, with
// expression-driven face offsets (jaw open, pout, smile).
ScalarField bodySignedDistance(const Pose& pose,
                               const Skeleton& skeleton = Skeleton::canonical(),
                               const BodyFieldOptions& options = {});

// Live instrumentation counters for a body field evaluated concurrently
// by sampler workers. Sharded per thread so the hot path stays
// uncontended; totals are exact. bonesBlended / bonesPruned count
// per-query capsule decisions and are the same whichever of 'field' and
// 'batch' evaluated the points; bonesCulled is the share of bonesPruned
// the batch kernel decided once per call instead of per lane group.
class BodyFieldStats {
public:
    void add(std::uint64_t blended, std::uint64_t pruned,
             std::uint64_t culled) noexcept;
    std::uint64_t bonesBlended() const noexcept;
    std::uint64_t bonesPruned() const noexcept;
    std::uint64_t bonesCulled() const noexcept;
    void reset() noexcept;

private:
    static constexpr std::size_t kShards = 16;
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> blended{0};
        std::atomic<std::uint64_t> pruned{0};
        std::atomic<std::uint64_t> culled{0};
    };
    std::array<Shard, kShards> shards_{};
};

// One posed capsule of the implicit body (bones, head sphere, torso
// slabs), exposed so callers can reason about which regions of space a
// skeleton change can affect (temporal block caching).
struct PosedCapsule {
    Vec3f a, b;
    float ra, rb;
};

// A body field packaged with the analytic bounds sparse sampling needs:
//  * lipschitz — conservative Lipschitz constant of the field (capsule
//    round-cones contribute 1 + |ra-rb|/length through the smooth-min
//    fold, the expression warp multiplies in its offset gradient, the
//    clothing displacement adds its own gradient bound);
//  * margin — bound on the field's bounded discontinuities (expression
//    region gates / smile sign flip, clothing region gates), added to
//    every block-skip certificate.
// With these, |field(c)| > lipschitz * r + margin certifies the field
// has no zero crossing within distance r of c.
struct BodyField {
    ScalarField field;  // thread-safe; shared by all sampler workers
    // SIMD batch evaluator (SoA points): bit-identical to calling
    // 'field' per point — including per-lane bone-pruning decisions —
    // on every backend (see geometry/simd.hpp for the determinism
    // contract). BlockSampler uses this for whole-block evaluation.
    mesh::BatchScalarField batch;
    float lipschitz{1.0f};
    float margin{0.0f};
    geom::AABB bounds;  // loose world bounds (same rule as bodyBounds)
    // World-space box outside which the expression warp is provably
    // zero — the only region an expression change can invalidate.
    geom::AABB faceBounds;
    std::vector<PosedCapsule> capsules;
    std::shared_ptr<BodyFieldStats> stats;  // counters for this field
    // Analytic block certificate: certificate(center, radius, slack) is
    // true when |field| provably exceeds 'slack' everywhere within
    // 'radius' of 'center'. Far tighter than the global lipschitz/margin
    // pair because it bounds the field from the posed capsules directly
    // (distance-to-AABB and distance-to-endpoint bounds are 1-Lipschitz
    // regardless of capsule cone slope) and pays the expression-warp
    // displacement only for regions the warp can actually reach. Feed it
    // to mesh::FieldSampleOptions::certificate with slack = any drift
    // tolerance a temporal cache allows before re-sampling.
    std::function<bool(Vec3f center, float radius, float slack)> certificate;
};

// Build the implicit body field for sparse/parallel sampling. The field
// evaluates identically to bodySignedDistance when options.bonePruning
// is false, and within one rounding step per skipped capsule otherwise.
BodyField makeBodyField(const Pose& pose,
                        const Skeleton& skeleton = Skeleton::canonical(),
                        const BodyFieldOptions& options = {});

// Loose world-space bounds of the posed body (for grid placement).
geom::AABB bodyBounds(const Pose& pose,
                      const Skeleton& skeleton = Skeleton::canonical());

// Name of the kernel BodyField::batch dispatches to on this machine:
// "avx2" when the CPU + build support it, else the baseline backend
// ("neon"/"scalar"). SEMHOLO_SIMD=scalar forces the baseline.
const char* bodyBatchBackend();

// Per-vertex skinning: up to 4 (joint, weight) pairs.
struct SkinWeights {
    std::array<std::uint16_t, 4> joints{};
    std::array<float, 4> weights{};
};

class BodyModel {
public:
    // Build the subject template in the rest pose. 'templateResolution'
    // is the iso-surface grid resolution for the template. The default
    // (47) yields ~10.5k vertices / ~21k triangles — the same scale as
    // the SMPL-X template the paper streams — so the raw per-frame mesh
    // payload lands on Table 2's ~398 KB.
    explicit BodyModel(const ShapeParams& shape, int templateResolution = 47);

    const TriMesh& templateMesh() const { return template_; }
    const ShapeParams& shape() const { return shape_; }
    const std::vector<SkinWeights>& skinWeights() const { return weights_; }

    // Deform the template to 'pose' with linear blend skinning and apply
    // expression displacements. The returned mesh carries the template's
    // per-vertex colours (the "ground-truth texture").
    TriMesh deform(const Pose& pose) const;

private:
    void computeSkinWeights();
    void paintTexture();

    ShapeParams shape_{};
    TriMesh template_;
    std::vector<SkinWeights> weights_;
    SkeletonState restState_{};
};

// Procedural ground-truth texture: skin tone with clothing bands; also
// used to score the Figure 3 learned-texture comparison.
Vec3f groundTruthAlbedo(Vec3f restPosition);

// Expression displacement applied to a rest-space point near the face.
Vec3f expressionOffset(Vec3f restPosition, const ExpressionParams& expression);

}  // namespace semholo::body
