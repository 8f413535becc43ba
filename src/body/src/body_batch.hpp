// Internal: SoA capsule data + kernel entry points for the SIMD body
// field and its block certificate (see geometry/simd.hpp for the lane
// types and the determinism contract). The kernel source
// (body_batch_kernel.inl) is compiled once per ISA flavor —
// body_batch_base.cpp for the portable baseline and body_batch_avx2.cpp
// (x86, -mavx2) for the wide path — and makeBodyField dispatches to the
// widest kernels the CPU supports.
//
// Every kernel evaluates, per lane, the exact float-operation sequence
// of the scalar field closure in body_model.cpp: results are
// bit-identical to calling BodyField::field point by point, including
// the per-lane bone-pruning decisions (each lane keeps its own running
// distance, so a lane prunes a capsule exactly when the scalar path
// would). Before the lane loop each call culls the capsules that every
// lane provably prunes (see cullCapsules in the kernel), so lanes only
// test the few capsules that can still reach the call's points.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "semholo/body/body_model.hpp"

namespace semholo::body::detail {

// The arrays the per-call cull and the certificate load whole lane
// groups at a time (endpoints, end radii, prune boxes, rmax) are
// zero-padded past 'count' to a multiple of this; the padding is never
// read as a capsule.
inline constexpr std::size_t kCapsulePad = 8;

// Capsule + prune-box constants in structure-of-arrays form so kernels
// broadcast one scalar per capsule instead of gathering.
struct BodyBatchData {
    // Segment endpoints a and b, precomputed ab = b - a and |ab|^2 (b is
    // stored as posed: a + ab does not round back to it).
    std::vector<float> ax, ay, az;
    std::vector<float> bx, by, bz;
    std::vector<float> abx, aby, abz;
    std::vector<float> len2;
    // End radii ra, rb and drr = rb - ra (the lerp coefficient).
    std::vector<float> ra, rb, drr;
    // Prune boxes (segment AABB) + larger end radius.
    std::vector<float> lox, loy, loz, hix, hiy, hiz, rmax;
    std::size_t count{0};

    // Largest |coordinate| of any prune box: scales the cull's rounding
    // allowance.
    float extent{0.0f};

    bool bonePruning{true};
    bool hasExpression{false};
    ExpressionParams expr{};
    // World box outside which expressionOffset is exactly zero, and the
    // largest distance the warp can move a query point (both as in the
    // field's certificate).
    geom::AABB faceBounds{};
    float maxWarp{0.0f};
    geom::RigidTransform headXf{}, headInv{};
    Vec3f headRest{};
    bool clothingDetail{false};
    float clothingAmplitude{0.0f};
    geom::RigidTransform rootInv{};
};

// The capsule, prune-box and padding fields for the posed capsules (the
// per-field options keep their defaults).
BodyBatchData packCapsules(const std::vector<PosedCapsule>& capsules);

// Per-capsule certificate bounds at a point c, folded over every capsule
// with min:
//   lb = min_i dist(c, segBox_i) - rmax_i            <= capsuleDistance_i
//   ub = min_i min(|c - a_i| - ra_i, |c - b_i| - rb_i) >= capsuleDistance_i
// Both are 1-Lipschitz in c, which is what lets makeBodyField's block
// certificate widen them by a ball radius. Each capsule's bounds are the
// float sequence of the scalar expressions above (std::max({lo - c, 0,
// c - hi}) per axis, sqrt of the x + y + z sum of squares), and min is
// exact, so every backend returns the same bits. A non-finite
// coordinate makes a capsule's bounds NaN, which the fold skips.
struct CapsuleBounds {
    float lb;
    float ub;
};

// Procedural clothing folds (shared by the scalar closure and the batch
// kernels): high-frequency displacement confined to the clothed body
// regions, in the pelvis-local frame so folds move with the root.
inline float clothingFoldDisplacement(Vec3f pLocal, float amplitude) {
    if (pLocal.y > 0.45f || pLocal.y < -0.95f) return 0.0f;  // skin regions
    return amplitude * std::sin(55.0f * pLocal.y) *
           std::sin(35.0f * pLocal.x + 20.0f * pLocal.z);
}

// Evaluate the body field at n SoA query points; adds the capsule blend
// / prune tallies for the batch to 'blended' / 'pruned' (equal to the
// per-point field's) and the part of 'pruned' decided once per call by
// the capsule cull to 'culled'.
void evaluateBodyBatchBaseline(const BodyBatchData& data, const float* xs,
                               const float* ys, const float* zs, float* out,
                               std::size_t n, std::uint64_t& blended,
                               std::uint64_t& pruned, std::uint64_t& culled);
CapsuleBounds capsuleBoundsBaseline(const BodyBatchData& data, Vec3f center);
#if defined(SEMHOLO_HAVE_AVX2_KERNELS)
void evaluateBodyBatchAvx2(const BodyBatchData& data, const float* xs,
                           const float* ys, const float* zs, float* out,
                           std::size_t n, std::uint64_t& blended,
                           std::uint64_t& pruned, std::uint64_t& culled);
CapsuleBounds capsuleBoundsAvx2(const BodyBatchData& data, Vec3f center);
#endif

// The capsule-bounds kernel makeBodyField's certificate dispatches to
// (AVX2 when the CPU and build support it, the baseline otherwise or
// under SEMHOLO_SIMD=scalar).
CapsuleBounds capsuleBounds(const BodyBatchData& data, Vec3f center);

}  // namespace semholo::body::detail
