// The analytic block certificate runs on the capsule-bounds kernel
// (body_batch_kernel.inl), eight capsules per lane group. Min is exact
// and every lane keeps the scalar per-capsule float sequence, so the
// kernel must reproduce the scalar certificate's lb, ub and verdict bit
// for bit — zero tolerance, on whichever backend the dispatcher picked
// (run the suite again under SEMHOLO_SIMD=scalar for the baseline).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "body_batch.hpp"
#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"

namespace semholo::body {
namespace {

using geom::Vec3f;

float aabbDistance2(Vec3f p, Vec3f lo, Vec3f hi) {
    const float dx = std::max({lo.x - p.x, 0.0f, p.x - hi.x});
    const float dy = std::max({lo.y - p.y, 0.0f, p.y - hi.y});
    const float dz = std::max({lo.z - p.z, 0.0f, p.z - hi.z});
    return dx * dx + dy * dy + dz * dz;
}

struct Reference {
    bool certified;
    float lb, ub;
};

// The scalar certificate makeBodyField used before the kernel, one
// capsule at a time: the reference the kernel is held to.
struct ScalarCertificate {
    std::vector<PosedCapsule> capsules;
    geom::AABB face;
    float maxWarp{0.0f};
    float clothingSlack{0.0f};

    ScalarCertificate(const BodyField& body, const Pose& pose,
                      const BodyFieldOptions& options)
        : capsules(body.capsules), face(body.faceBounds) {
        const auto& c = pose.expression.coeffs;
        const float a0 = std::fabs(static_cast<float>(c[0]));
        const float a1 = std::fabs(static_cast<float>(c[1]));
        const float a2 = std::fabs(static_cast<float>(c[2]));
        const float a3 = std::fabs(static_cast<float>(c[3]));
        maxWarp = 0.02f * a0 + 0.015f * a1 + 0.012f * a2 + 0.008f * a3;
        clothingSlack = options.clothingDetail ? options.clothingAmplitude : 0.0f;
    }

    Reference operator()(Vec3f center, float radius, float slack) const {
        float r = radius;
        if (maxWarp > 0.0f &&
            aabbDistance2(center, face.lo, face.hi) <= radius * radius)
            r += maxWarp;
        const float clear = r + slack + clothingSlack + 1e-4f;
        float lb = std::numeric_limits<float>::max();
        float ub = std::numeric_limits<float>::max();
        for (const PosedCapsule& c : capsules) {
            const Vec3f lo{std::min(c.a.x, c.b.x), std::min(c.a.y, c.b.y),
                           std::min(c.a.z, c.b.z)};
            const Vec3f hi{std::max(c.a.x, c.b.x), std::max(c.a.y, c.b.y),
                           std::max(c.a.z, c.b.z)};
            lb = std::min(
                lb, std::sqrt(aabbDistance2(center, lo, hi)) - std::max(c.ra, c.rb));
            ub = std::min(ub, std::min((center - c.a).norm() - c.ra,
                                       (center - c.b).norm() - c.rb));
        }
        const bool certified = lb - kFieldBlend > clear || ub < -clear;
        return {certified, lb, ub};
    }
};

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

struct Verdicts {
    std::size_t exterior{0}, interior{0}, open{0};
};

// One query through both paths: the kernel's lb / ub on the field's
// packed capsules and the field's own certificate verdict.
void expectMatches(const BodyField& body, const detail::BodyBatchData& data,
                   const ScalarCertificate& ref, Vec3f center, float radius,
                   float slack, Verdicts& seen) {
    const Reference want = ref(center, radius, slack);
    const detail::CapsuleBounds got = detail::capsuleBounds(data, center);
    EXPECT_EQ(bits(got.lb), bits(want.lb))
        << "lb at (" << center.x << ", " << center.y << ", " << center.z << ") "
        << got.lb << " vs " << want.lb;
    EXPECT_EQ(bits(got.ub), bits(want.ub))
        << "ub at (" << center.x << ", " << center.y << ", " << center.z << ") "
        << got.ub << " vs " << want.ub;
    EXPECT_EQ(body.certificate(center, radius, slack), want.certified)
        << "verdict at (" << center.x << ", " << center.y << ", " << center.z
        << ") radius " << radius << " slack " << slack;
    if (!want.certified)
        ++seen.open;
    else if (want.ub < 0.0f)
        ++seen.interior;
    else
        ++seen.exterior;
}

// Seeded sweep of block-shaped queries: centres on random 32^3..256^3
// block grids over the body box, on capsule endpoints and in the face
// box, with the leaf guard radius of 2..16-node blocks and the coarse
// octree radii above it.
Verdicts sweep(const Pose& pose, const BodyFieldOptions& options, std::uint32_t seed,
               int queries) {
    const BodyField body = makeBodyField(pose, Skeleton::canonical(), options);
    const ScalarCertificate ref(body, pose, options);
    const detail::BodyBatchData data = detail::packCapsules(body.capsules);

    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    std::uniform_int_distribution<int> pick(0, 3);
    std::uniform_int_distribution<std::size_t> capsule(0, body.capsules.size() - 1);
    const float resolutions[] = {32.0f, 64.0f, 128.0f, 256.0f};
    const int blockSizes[] = {2, 4, 8, 16};
    const float slacks[] = {0.0f, 0.002f, 0.0f, 0.01f};
    const Vec3f span = body.bounds.extent();
    const float extent = std::max({span.x, span.y, span.z});
    Verdicts seen;
    for (int q = 0; q < queries; ++q) {
        const float h = extent / resolutions[pick(rng)];
        const int bs = blockSizes[pick(rng)];
        // Leaf guard half-diagonal, or an octree node 2..8 blocks wide.
        const float levels[] = {1.0f, 2.0f, 4.0f, 8.0f};
        const float radius = 0.5f * static_cast<float>(bs + 1) * h * std::sqrt(3.0f) *
                             levels[pick(rng)];
        Vec3f center;
        switch (pick(rng)) {
            case 0: {
                const geom::AABB& f = body.faceBounds;
                center = {f.lo.x + unit(rng) * (f.hi.x - f.lo.x),
                          f.lo.y + unit(rng) * (f.hi.y - f.lo.y),
                          f.lo.z + unit(rng) * (f.hi.z - f.lo.z)};
                break;
            }
            case 1: {
                const PosedCapsule& c = body.capsules[capsule(rng)];
                center = unit(rng) < 0.5f ? c.a : c.b;
                break;
            }
            default: {
                // Snap to the centre of a block on the grid, as the
                // sampler's queries are.
                const float step = static_cast<float>(bs) * h;
                const Vec3f lo = body.bounds.lo;
                center = {lo.x + step * std::floor(unit(rng) * span.x / step) + 0.5f * step,
                          lo.y + step * std::floor(unit(rng) * span.y / step) + 0.5f * step,
                          lo.z + step * std::floor(unit(rng) * span.z / step) + 0.5f * step};
                break;
            }
        }
        expectMatches(body, data, ref, center, radius, slacks[pick(rng)], seen);
        if (::testing::Test::HasFailure()) break;
    }
    return seen;
}

const MotionKind kAllMotions[] = {MotionKind::Idle, MotionKind::Walk, MotionKind::Wave,
                                  MotionKind::Talk, MotionKind::Collaborate};

TEST(BodyCertificate, MatchesScalarReferenceOverMotions) {
    std::uint32_t seed = 500;
    Verdicts total;
    for (const MotionKind kind : kAllMotions)
        for (const bool clothing : {false, true})
            for (const double t : {0.2, 1.3, 2.9}) {
                SCOPED_TRACE(motionName(kind) + (clothing ? " clothed" : "") +
                             " t=" + std::to_string(t));
                BodyFieldOptions opt;
                opt.clothingDetail = clothing;
                const Verdicts v =
                    sweep(MotionGenerator(kind).poseAt(t), opt, ++seed, 400);
                total.exterior += v.exterior;
                total.interior += v.interior;
                total.open += v.open;
                if (::testing::Test::HasFailure()) return;
            }
    // All three outcomes occur, so the verdict comparison is not vacuous.
    EXPECT_GT(total.exterior, 100u);
    EXPECT_GT(total.interior, 10u);
    EXPECT_GT(total.open, 100u);
}

TEST(BodyCertificate, MatchesScalarReferenceWithStrongExpression) {
    // Large coefficients make the face warp's allowance dominate the
    // verdicts near the head.
    std::mt19937 rng(600);
    std::uniform_real_distribution<double> coeff(-20.0, 20.0);
    for (int pose = 0; pose < 8; ++pose) {
        SCOPED_TRACE("pose " + std::to_string(pose));
        Pose p = MotionGenerator(MotionKind::Talk).poseAt(0.4 * pose);
        for (int k = 0; k < 4; ++k)
            p.expression.coeffs[static_cast<std::size_t>(k)] = coeff(rng);
        sweep(p, {}, 600u + static_cast<std::uint32_t>(pose), 300);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(BodyCertificate, MatchesScalarReferenceFarAndNonFinite) {
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.5);
    const BodyField body = makeBodyField(pose);
    const ScalarCertificate ref(body, pose, {});
    const detail::BodyBatchData data = detail::packCapsules(body.capsules);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Vec3f centers[] = {
        {2000.0f, 0.5f, -40.0f}, {-1e6f, 1e6f, 3.0f},  {1e30f, 0.0f, 0.0f},
        {3e38f, -3e38f, 3e38f},  {inf, 0.7f, 0.1f},    {0.0f, -inf, 0.0f},
        {inf, -inf, inf},        {nan, 0.7f, 0.1f},    {0.0f, 0.6f, nan},
        {nan, nan, nan},         {0.0f, 0.7f, 0.1f},
    };
    Verdicts seen;
    for (const Vec3f& c : centers)
        for (const float radius : {0.01f, 0.5f, 1e4f})
            expectMatches(body, data, ref, c, radius, 0.002f, seen);
}

TEST(BodyCertificate, BoundsMatchForEveryCapsuleCount) {
    // Counts that are not a multiple of the lane width leave padding
    // lanes in the last group; they must never win the min. The body is
    // moved 5 m along x, so queries near the origin are far from every
    // capsule and close to where the zero padding sits.
    const Pose pose = MotionGenerator(MotionKind::Wave).poseAt(0.8);
    const BodyField body = makeBodyField(pose);
    const Vec3f shift{5.0f, 0.0f, 0.0f};
    std::vector<PosedCapsule> moved = body.capsules;
    for (PosedCapsule& c : moved) {
        c.a += shift;
        c.b += shift;
    }
    std::mt19937 rng(700);
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    const geom::AABB box{body.bounds.lo + shift, body.bounds.hi + shift};
    for (std::size_t n = 1; n <= moved.size(); ++n) {
        SCOPED_TRACE("capsules " + std::to_string(n));
        ScalarCertificate ref(body, pose, {});
        ref.capsules.assign(moved.begin(), moved.begin() + static_cast<std::ptrdiff_t>(n));
        const detail::BodyBatchData data = detail::packCapsules(ref.capsules);
        ASSERT_EQ(data.count, n);
        for (int q = 0; q < 40; ++q) {
            const Vec3f c =
                q % 2 == 0 ? Vec3f{0.2f * (unit(rng) - 0.5f), 0.2f * (unit(rng) - 0.5f),
                                   0.2f * (unit(rng) - 0.5f)}
                           : Vec3f{box.lo.x + unit(rng) * (box.hi.x - box.lo.x),
                                   box.lo.y + unit(rng) * (box.hi.y - box.lo.y),
                                   box.lo.z + unit(rng) * (box.hi.z - box.lo.z)};
            const Reference want = ref(c, 0.01f, 0.0f);
            const detail::CapsuleBounds got = detail::capsuleBounds(data, c);
            EXPECT_EQ(bits(got.lb), bits(want.lb)) << "query " << q;
            EXPECT_EQ(bits(got.ub), bits(want.ub)) << "query " << q;
        }
        if (::testing::Test::HasFailure()) return;
    }
}

}  // namespace
}  // namespace semholo::body
