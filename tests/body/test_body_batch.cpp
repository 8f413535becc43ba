#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"

namespace semholo::body {
namespace {

using geom::Vec3f;

std::vector<Vec3f> randomPoints(const geom::AABB& bounds, std::size_t n,
                                std::uint32_t seed) {
    std::mt19937 rng(seed);
    // Pad outward so lanes also hit the pruning fast path far from the
    // body, not just the blended interior.
    const Vec3f lo = bounds.lo - Vec3f{0.3f, 0.3f, 0.3f};
    const Vec3f hi = bounds.hi + Vec3f{0.3f, 0.3f, 0.3f};
    std::uniform_real_distribution<float> ux(lo.x, hi.x);
    std::uniform_real_distribution<float> uy(lo.y, hi.y);
    std::uniform_real_distribution<float> uz(lo.z, hi.z);
    std::vector<Vec3f> pts(n);
    for (auto& p : pts) p = {ux(rng), uy(rng), uz(rng)};
    return pts;
}

// The batch kernel must return, per point, EXACTLY the bits the scalar
// field returns — zero tolerance. That is the determinism contract that
// keeps sparse reconstruction byte-identical to dense whichever backend
// (scalar, AVX2) the dispatcher picked on this host; any widening here
// (FMA contraction, reassociation) is a build bug, not slack to absorb.
void expectBatchBitIdentical(const Pose& pose, const BodyFieldOptions& options,
                             std::uint32_t seed) {
    const BodyField body = makeBodyField(pose, Skeleton::canonical(), options);
    ASSERT_TRUE(body.batch);
    // Odd count exercises the padded tail lanes.
    const auto pts = randomPoints(body.bounds, 1003, seed);
    std::vector<float> xs, ys, zs;
    for (const Vec3f& p : pts) {
        xs.push_back(p.x);
        ys.push_back(p.y);
        zs.push_back(p.z);
    }
    std::vector<float> batched(pts.size());
    body.batch(xs.data(), ys.data(), zs.data(), batched.data(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(batched[i], body.field(pts[i])) << "point " << i;
    }
}

TEST(BodyBatch, BitIdenticalToScalarFieldPlain) {
    BodyFieldOptions opt;
    opt.bonePruning = false;
    expectBatchBitIdentical(Pose{}, opt, 1);
}

TEST(BodyBatch, BitIdenticalToScalarFieldWithPruning) {
    BodyFieldOptions opt;
    opt.bonePruning = true;
    expectBatchBitIdentical(MotionGenerator(MotionKind::Wave).poseAt(0.7), opt, 2);
}

TEST(BodyBatch, BitIdenticalToScalarFieldWithExpression) {
    // Talk drives jaw/expression coefficients: the per-lane scalar
    // face-warp pre-pass must agree with the scalar path bit for bit.
    BodyFieldOptions opt;
    opt.bonePruning = true;
    expectBatchBitIdentical(MotionGenerator(MotionKind::Talk).poseAt(0.5), opt, 3);
}

TEST(BodyBatch, BitIdenticalToScalarFieldWithClothing) {
    BodyFieldOptions opt;
    opt.bonePruning = true;
    opt.clothingDetail = true;
    expectBatchBitIdentical(MotionGenerator(MotionKind::Collaborate).poseAt(1.1),
                            opt, 4);
}

TEST(BodyBatch, CountersMatchScalarTallies) {
    const Pose pose = MotionGenerator(MotionKind::Wave).poseAt(0.4);
    BodyFieldOptions opt;
    opt.bonePruning = true;
    // Scalar pass tallies.
    const BodyField scalarBody = makeBodyField(pose, Skeleton::canonical(), opt);
    const auto pts = randomPoints(scalarBody.bounds, 512, 5);
    for (const Vec3f& p : pts) scalarBody.field(p);
    // Batch pass over the same points on a fresh field.
    const BodyField batchBody = makeBodyField(pose, Skeleton::canonical(), opt);
    std::vector<float> xs, ys, zs, out(pts.size());
    for (const Vec3f& p : pts) {
        xs.push_back(p.x);
        ys.push_back(p.y);
        zs.push_back(p.z);
    }
    batchBody.batch(xs.data(), ys.data(), zs.data(), out.data(), pts.size());
    EXPECT_EQ(batchBody.stats->bonesBlended(), scalarBody.stats->bonesBlended());
    EXPECT_EQ(batchBody.stats->bonesPruned(), scalarBody.stats->bonesPruned());
}

// ---- Block-shaped calls --------------------------------------------------
//
// The kernel culls, once per call, the capsules no lane of the call can
// blend. The 1003-point calls above span the whole body box, so almost
// nothing is culled there; these calls have the shape the samplers send
// (small node grids, x fastest), where the cull decides most capsules and
// a wrong bound would change a lane.

struct PointSet {
    std::vector<float> xs, ys, zs;
    std::size_t size() const { return xs.size(); }
    Vec3f at(std::size_t i) const { return {xs[i], ys[i], zs[i]}; }
};

// An nx * ny * nz node grid with spacing h starting at 'origin', in the
// samplers' x-fastest order, optionally with a ragged tail of 1-7 nodes
// dropped.
PointSet nodeGrid(Vec3f origin, float h, int nx, int ny, int nz, int dropTail) {
    PointSet s;
    for (int z = 0; z < nz; ++z)
        for (int y = 0; y < ny; ++y)
            for (int x = 0; x < nx; ++x) {
                s.xs.push_back(origin.x + h * static_cast<float>(x));
                s.ys.push_back(origin.y + h * static_cast<float>(y));
                s.zs.push_back(origin.z + h * static_cast<float>(z));
            }
    const std::size_t keep =
        s.size() > static_cast<std::size_t>(dropTail) ? s.size() - dropTail : 1;
    s.xs.resize(keep);
    s.ys.resize(keep);
    s.zs.resize(keep);
    return s;
}

struct Tallies {
    std::uint64_t blended{0}, pruned{0}, culled{0};
    Tallies& operator+=(const Tallies& o) {
        blended += o.blended;
        pruned += o.pruned;
        culled += o.culled;
        return *this;
    }
};

Tallies takeTallies(BodyFieldStats& stats) {
    const Tallies t{stats.bonesBlended(), stats.bonesPruned(), stats.bonesCulled()};
    stats.reset();
    return t;
}

// Evaluates one call through 'batch' and point by point through 'field';
// every lane must carry the scalar bits and the blend / prune tallies
// must agree. Returns the batch call's tallies.
Tallies expectCallMatchesField(const BodyField& body, const PointSet& pts,
                               const std::string& what) {
    body.stats->reset();
    std::vector<float> batched(pts.size());
    body.batch(pts.xs.data(), pts.ys.data(), pts.zs.data(), batched.data(),
               pts.size());
    const Tallies batch = takeTallies(*body.stats);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const float scalar = body.field(pts.at(i));
        if (std::bit_cast<std::uint32_t>(batched[i]) !=
                std::bit_cast<std::uint32_t>(scalar) &&
            mismatches++ < 3)
            ADD_FAILURE() << what << ": lane " << i << " batch " << batched[i]
                          << " field " << scalar;
    }
    const Tallies scalar = takeTallies(*body.stats);
    EXPECT_EQ(mismatches, 0u) << what;
    EXPECT_EQ(batch.blended, scalar.blended) << what;
    EXPECT_EQ(batch.pruned, scalar.pruned) << what;
    EXPECT_EQ(scalar.culled, 0u) << what;
    EXPECT_LE(batch.culled, batch.pruned) << what;
    return batch;
}

// Seeded property sweep over block-shaped calls for one field: random
// 2..9 node grids in and around the body box, grids straddling the face
// box (where the expression warp switches on), grids centred on capsule
// endpoints (fingers under Wave), grid spacings of 32^3..256^3 sampling,
// and ragged tails.
Tallies sweepBlocks(const BodyField& body, std::uint32_t seed, int calls) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> dim(2, 9);
    std::uniform_int_distribution<int> tail(1, 7);
    std::uniform_int_distribution<int> kind(0, 3);
    std::uniform_int_distribution<std::size_t> capsule(0, body.capsules.size() - 1);
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    const float resolutions[] = {32.0f, 64.0f, 128.0f, 256.0f};
    const Vec3f span = body.bounds.extent();
    const auto lerpBox = [&](const geom::AABB& box, float pad) {
        return Vec3f{box.lo.x - pad + unit(rng) * (box.hi.x - box.lo.x + 2 * pad),
                     box.lo.y - pad + unit(rng) * (box.hi.y - box.lo.y + 2 * pad),
                     box.lo.z - pad + unit(rng) * (box.hi.z - box.lo.z + 2 * pad)};
    };
    Tallies total;
    for (int call = 0; call < calls; ++call) {
        const float h = std::max({span.x, span.y, span.z}) /
                        resolutions[static_cast<std::size_t>(kind(rng))];
        const int nx = dim(rng), ny = dim(rng), nz = dim(rng);
        Vec3f center;
        const int where = kind(rng);
        if (where == 0) {
            // In or just around the face box, so calls straddle its
            // boundary, where the warp switches on.
            center = lerpBox(body.faceBounds, 0.02f);
        } else if (where == 1) {
            // On a capsule endpoint (joints, fingertips).
            const PosedCapsule& c = body.capsules[capsule(rng)];
            center = unit(rng) < 0.5f ? c.a : c.b;
        } else {
            center = lerpBox(body.bounds, 0.1f);
        }
        const Vec3f origin = center - Vec3f{h * static_cast<float>(nx - 1),
                                            h * static_cast<float>(ny - 1),
                                            h * static_cast<float>(nz - 1)} *
                                          0.5f;
        const int drop = unit(rng) < 0.3f ? tail(rng) : 0;
        const PointSet pts = nodeGrid(origin, h, nx, ny, nz, drop);
        total += expectCallMatchesField(body, pts, "call " + std::to_string(call));
        if (::testing::Test::HasFailure()) break;
    }
    return total;
}

const MotionKind kAllMotions[] = {MotionKind::Idle, MotionKind::Walk, MotionKind::Wave,
                                  MotionKind::Talk, MotionKind::Collaborate};

TEST(BodyBatch, BlockShapedCallsBitIdenticalWithPruning) {
    std::uint32_t seed = 100;
    for (const MotionKind kind : kAllMotions) {
        for (const double t : {0.3, 1.7}) {
            SCOPED_TRACE(motionName(kind) + " t=" + std::to_string(t));
            const BodyField body = makeBodyField(MotionGenerator(kind).poseAt(t));
            const Tallies tallies = sweepBlocks(body, ++seed, 120);
            // Block-shaped calls are where the cull does its work.
            EXPECT_GT(tallies.culled, 0u);
        }
    }
}

TEST(BodyBatch, BlockShapedCallsBitIdenticalWithoutPruning) {
    BodyFieldOptions opt;
    opt.bonePruning = false;
    std::uint32_t seed = 200;
    for (const MotionKind kind : kAllMotions) {
        SCOPED_TRACE(motionName(kind));
        const BodyField body =
            makeBodyField(MotionGenerator(kind).poseAt(0.9), Skeleton::canonical(), opt);
        const Tallies tallies = sweepBlocks(body, ++seed, 60);
        EXPECT_EQ(tallies.pruned, 0u);
        EXPECT_EQ(tallies.culled, 0u);
    }
}

TEST(BodyBatch, BlockShapedCallsBitIdenticalWithClothing) {
    std::uint32_t seed = 300;
    for (const bool pruning : {true, false}) {
        BodyFieldOptions opt;
        opt.bonePruning = pruning;
        opt.clothingDetail = true;
        for (const MotionKind kind : kAllMotions) {
            SCOPED_TRACE(motionName(kind) + (pruning ? " pruned" : " unpruned"));
            const BodyField body = makeBodyField(MotionGenerator(kind).poseAt(2.3),
                                                 Skeleton::canonical(), opt);
            sweepBlocks(body, ++seed, 60);
        }
    }
}

TEST(BodyBatch, BlockShapedCallsBitIdenticalWithStrongExpression) {
    // Exaggerated expressions move face points by tens of centimetres, so
    // the cull must grow the call's box by the warp bound wherever the
    // call meets the face box (a quarter of the calls straddle it). With
    // everyday coefficients the warp is too small for a missing growth
    // to flip any lane.
    std::uint32_t seed = 400;
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coeff(-20.0, 20.0);
    for (int pose = 0; pose < 12; ++pose) {
        SCOPED_TRACE("pose " + std::to_string(pose));
        Pose p = MotionGenerator(MotionKind::Talk).poseAt(0.4 * pose);
        for (int k = 0; k < 4; ++k) p.expression.coeffs[static_cast<std::size_t>(k)] = coeff(rng);
        const BodyField body = makeBodyField(p);
        sweepBlocks(body, ++seed, 150);
    }
}

TEST(BodyBatch, PointsFarFromTheBodyStayBitIdentical) {
    // Far-away and degenerate calls: a single point, a call spread over
    // metres, and grids kilometres from the body (large coordinates
    // widen the cull's rounding allowance).
    const BodyField body = makeBodyField(MotionGenerator(MotionKind::Talk).poseAt(0.5));
    expectCallMatchesField(body, nodeGrid({0.0f, 0.7f, 0.1f}, 0.01f, 1, 1, 1, 0), "one");
    expectCallMatchesField(body, nodeGrid({-3.0f, -3.0f, -3.0f}, 1.5f, 5, 5, 5, 3),
                           "spread");
    expectCallMatchesField(body, nodeGrid({2000.0f, 0.5f, -40.0f}, 0.01f, 4, 4, 4, 0),
                           "far");
    expectCallMatchesField(body, nodeGrid({-1e6f, 1e6f, 3.0f}, 0.5f, 3, 3, 3, 1),
                           "very far");
}

TEST(BodyBatch, NonFiniteCallsSkipTheCull) {
    // A call holding a NaN or infinite coordinate has no finite box to
    // cull against: every lane decides for itself, as the per-point
    // field does, and non-finite lanes come out NaN on both paths.
    const BodyField body = makeBodyField(MotionGenerator(MotionKind::Talk).poseAt(0.5));
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
        PointSet pts = nodeGrid({0.0f, 0.6f, 0.0f}, 0.01f, 4, 4, 4, 0);
        pts.ys[17] = bad;
        body.stats->reset();
        std::vector<float> batched(pts.size());
        body.batch(pts.xs.data(), pts.ys.data(), pts.zs.data(), batched.data(),
                   pts.size());
        const Tallies batch = takeTallies(*body.stats);
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const float scalar = body.field(pts.at(i));
            if (std::isnan(scalar))
                EXPECT_TRUE(std::isnan(batched[i])) << "lane " << i;
            else
                EXPECT_EQ(std::bit_cast<std::uint32_t>(batched[i]),
                          std::bit_cast<std::uint32_t>(scalar))
                    << "lane " << i;
        }
        const Tallies scalar = takeTallies(*body.stats);
        EXPECT_EQ(batch.culled, 0u);
        EXPECT_EQ(batch.blended, scalar.blended);
        EXPECT_EQ(batch.pruned, scalar.pruned);
    }
}

TEST(BodyBatch, CullDecidesMostCapsulesOnSurfaceBlocks) {
    // The 4^3 blocks a 128^3 sparse pass evaluates hug the surface. On
    // them the once-per-call cull, not the per-group test, must make most
    // prune decisions: a cull that silently falls back to testing every
    // capsule per lane group fails here.
    for (const MotionKind kind : {MotionKind::Talk, MotionKind::Walk}) {
        SCOPED_TRACE(motionName(kind));
        const BodyField body = makeBodyField(MotionGenerator(kind).poseAt(0.5));
        const Vec3f span = body.bounds.extent();
        const float h = std::max({span.x, span.y, span.z}) / 128.0f;
        const float diag = 4.0f * h * std::sqrt(3.0f);
        Tallies total;
        std::size_t blocks = 0;
        for (float z = body.bounds.lo.z; z < body.bounds.hi.z; z += 4.0f * h)
            for (float y = body.bounds.lo.y; y < body.bounds.hi.y; y += 4.0f * h)
                for (float x = body.bounds.lo.x; x < body.bounds.hi.x; x += 4.0f * h) {
                    const Vec3f center = Vec3f{x, y, z} + Vec3f{1.5f, 1.5f, 1.5f} * h;
                    if (std::fabs(body.field(center)) > diag) continue;
                    total += expectCallMatchesField(body, nodeGrid({x, y, z}, h, 4, 4, 4, 0),
                                                    "surface block");
                    ++blocks;
                    if (::testing::Test::HasFailure()) return;
                }
        ASSERT_GT(blocks, 100u);
        ASSERT_GT(total.pruned, 0u);
        EXPECT_GT(static_cast<double>(total.culled), 0.5 * static_cast<double>(total.pruned))
            << "culled " << total.culled << " of " << total.pruned << " pruned";
    }
}

TEST(BodyFieldStats, TalliesDoNotWrapAt32Bits) {
    // One batch call over more than ~78 M points exceeds 2^32 capsule
    // decisions; the tallies are 64-bit end to end.
    BodyFieldStats stats;
    const std::uint64_t big = (std::uint64_t{1} << 32) + 7;
    stats.add(big, 3 * big, 2 * big);
    stats.add(1, 2, 1);
    EXPECT_EQ(stats.bonesBlended(), big + 1);
    EXPECT_EQ(stats.bonesPruned(), 3 * big + 2);
    EXPECT_EQ(stats.bonesCulled(), 2 * big + 1);
    stats.reset();
    EXPECT_EQ(stats.bonesBlended(), 0u);
    EXPECT_EQ(stats.bonesCulled(), 0u);
}

TEST(BodyBatch, BackendNameIsReported) {
    const char* name = bodyBatchBackend();
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(std::string(name) == "avx2" || std::string(name) == "scalar" ||
                std::string(name) == "neon")
        << name;
}

}  // namespace
}  // namespace semholo::body
