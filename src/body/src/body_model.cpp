#include "semholo/body/body_model.hpp"

#include <algorithm>
#include <cmath>

#include "body_batch.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/geometry/simd.hpp"
#include "semholo/mesh/isosurface.hpp"

namespace semholo::body {

namespace {

// Polynomial smooth minimum (Quilez): blends capsule fields organically.
float smin(float a, float b, float k) {
    const float h = geom::clamp(0.5f + 0.5f * (b - a) / k, 0.0f, 1.0f);
    return geom::lerp(b, a, h) - k * h * (1.0f - h);
}

// Distance to a capsule with linearly varying radius (a "round cone").
float capsuleDistance(Vec3f p, Vec3f a, Vec3f b, float ra, float rb) {
    float t;
    const float d = geom::pointSegmentDistance(p, a, b, t);
    return d - geom::lerp(ra, rb, t);
}

// Girth multiplier from shape betas (beta[2] = overall girth).
float girth(const ShapeParams& shape) {
    return 1.0f + 0.06f * static_cast<float>(shape.betas[2]);
}

struct PosedBone {
    Vec3f a, b;
    float ra, rb;
};

std::vector<PosedBone> posedBones(const SkeletonState& state, const ShapeParams& shape,
                                  const Skeleton& skeleton) {
    std::vector<PosedBone> out;
    const float g = girth(shape);
    for (const Bone& bone : canonicalBones()) {
        const Vec3f a = state.worldFromJoint[index(bone.parent)].translation;
        const Vec3f b = state.worldFromJoint[index(bone.child)].translation;
        out.push_back({a, b, bone.radiusAtParent * g, bone.radiusAtChild * g});
    }
    // Head: a sphere centred slightly above the head joint.
    const Vec3f headPos = state.worldFromJoint[index(JointId::Head)].translation;
    const Vec3f headUp =
        state.worldFromJoint[index(JointId::Head)].rotation.rotate({0, 1, 0});
    out.push_back({headPos + headUp * 0.04f, headPos + headUp * 0.09f, 0.105f * g,
                   0.095f * g});
    // Torso volume: widen the spine capsules with two extra "slabs".
    const Vec3f spine1 = state.worldFromJoint[index(JointId::Spine1)].translation;
    const Vec3f spine3 = state.worldFromJoint[index(JointId::Spine3)].translation;
    const Vec3f right =
        state.worldFromJoint[index(JointId::Spine2)].rotation.rotate({1, 0, 0});
    out.push_back({spine1 + right * 0.06f, spine3 + right * 0.07f, 0.09f * g, 0.09f * g});
    out.push_back({spine1 - right * 0.06f, spine3 - right * 0.07f, 0.09f * g, 0.09f * g});
    (void)skeleton;
    return out;
}

}  // namespace

Vec3f expressionOffset(Vec3f restPosition, const ExpressionParams& expression) {
    // Face region in the rest pose: around the head at (0, ~0.70, ~+0.09).
    const Vec3f mouthCenter{0.0f, 0.66f, 0.10f};
    const Vec3f browCenter{0.0f, 0.75f, 0.10f};
    const float dMouth = (restPosition - mouthCenter).norm();
    const float dBrow = (restPosition - browCenter).norm();
    Vec3f offset{};
    // Jaw open: pull the lower-lip region down.
    if (dMouth < 0.06f && restPosition.y < mouthCenter.y) {
        const float w = 1.0f - dMouth / 0.06f;
        offset.y -= 0.02f * w * static_cast<float>(expression.coeffs[0]);
    }
    // Pout: push the lip region forward (+z).
    if (dMouth < 0.045f) {
        const float w = 1.0f - dMouth / 0.045f;
        offset.z += 0.015f * w * static_cast<float>(expression.coeffs[1]);
    }
    // Smile: stretch mouth corners outward in x.
    if (dMouth < 0.07f) {
        const float w = 1.0f - dMouth / 0.07f;
        offset.x += 0.012f * w * static_cast<float>(expression.coeffs[2]) *
                    (restPosition.x >= 0.0f ? 1.0f : -1.0f);
    }
    // Brow raise.
    if (dBrow < 0.05f && restPosition.y > browCenter.y - 0.01f) {
        const float w = 1.0f - dBrow / 0.05f;
        offset.y += 0.008f * w * static_cast<float>(expression.coeffs[3]);
    }
    return offset;
}

using detail::clothingFoldDisplacement;

ScalarField bodySignedDistance(const Pose& pose, const Skeleton& skeleton,
                               const BodyFieldOptions& options) {
    const SkeletonState state = forwardKinematics(pose, skeleton);
    auto bones = posedBones(state, pose.shape, skeleton);
    const ExpressionParams expr = pose.expression;

    // Rest-space face anchors posed into world space for expression
    // displacement of the implicit surface.
    const RigidTransform headXf = state.worldFromJoint[index(JointId::Head)];
    const Vec3f headRest = Skeleton::canonical().restPosition(JointId::Head);
    const RigidTransform rootInv =
        state.worldFromJoint[index(JointId::Pelvis)].inverse();

    return [bones = std::move(bones), expr, headXf, headRest, rootInv,
            options](Vec3f p) {
        // Expression: warp the query point near the face inverse to the
        // desired offset (standard implicit-deformation trick).
        const Vec3f pHeadLocal = headXf.inverse().apply(p) + headRest;
        const Vec3f offset = expressionOffset(pHeadLocal, expr);
        Vec3f q = p;
        if (offset.norm2() > 0.0f) q = p - headXf.applyVector(offset);

        float d = std::numeric_limits<float>::max();
        for (const PosedBone& b : bones)
            d = smin(d, capsuleDistance(q, b.a, b.b, b.ra, b.rb), kFieldBlend);
        if (options.clothingDetail)
            d += clothingFoldDisplacement(rootInv.apply(p),
                                          options.clothingAmplitude);
        return d;
    };
}

// ---- BodyFieldStats ------------------------------------------------------

namespace {

std::atomic<unsigned> gStatsShardCounter{0};

// Each thread claims its own shard once, so the per-evaluation counter
// updates are uncontended relaxed adds.
unsigned thisThreadShard() {
    static thread_local const unsigned shard =
        gStatsShardCounter.fetch_add(1, std::memory_order_relaxed);
    return shard;
}

}  // namespace

void BodyFieldStats::add(std::uint64_t blended, std::uint64_t pruned,
                         std::uint64_t culled) noexcept {
    Shard& s = shards_[thisThreadShard() % kShards];
    s.blended.fetch_add(blended, std::memory_order_relaxed);
    s.pruned.fetch_add(pruned, std::memory_order_relaxed);
    s.culled.fetch_add(culled, std::memory_order_relaxed);
}

std::uint64_t BodyFieldStats::bonesBlended() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.blended.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t BodyFieldStats::bonesPruned() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.pruned.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t BodyFieldStats::bonesCulled() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.culled.load(std::memory_order_relaxed);
    return total;
}

void BodyFieldStats::reset() noexcept {
    for (Shard& s : shards_) {
        s.blended.store(0, std::memory_order_relaxed);
        s.pruned.store(0, std::memory_order_relaxed);
        s.culled.store(0, std::memory_order_relaxed);
    }
}

// ---- makeBodyField -------------------------------------------------------

namespace {

float aabbDistance2(Vec3f p, Vec3f lo, Vec3f hi) {
    const float dx = std::max({lo.x - p.x, 0.0f, p.x - hi.x});
    const float dy = std::max({lo.y - p.y, 0.0f, p.y - hi.y});
    const float dz = std::max({lo.z - p.z, 0.0f, p.z - hi.z});
    return dx * dx + dy * dy + dz * dz;
}

using BatchKernel = void (*)(const detail::BodyBatchData&, const float*,
                             const float*, const float*, float*, std::size_t,
                             std::uint64_t&, std::uint64_t&, std::uint64_t&);
using BoundsKernel = detail::CapsuleBounds (*)(const detail::BodyBatchData&, Vec3f);

bool useAvx2Kernels() {
#if defined(SEMHOLO_HAVE_AVX2_KERNELS)
    return !geom::simd::forcedScalar() && geom::simd::cpuHasAvx2();
#else
    return false;
#endif
}

BatchKernel pickBatchKernel() {
#if defined(SEMHOLO_HAVE_AVX2_KERNELS)
    if (useAvx2Kernels()) return &detail::evaluateBodyBatchAvx2;
#endif
    return &detail::evaluateBodyBatchBaseline;
}

BoundsKernel pickBoundsKernel() {
#if defined(SEMHOLO_HAVE_AVX2_KERNELS)
    if (useAvx2Kernels()) return &detail::capsuleBoundsAvx2;
#endif
    return &detail::capsuleBoundsBaseline;
}

}  // namespace

namespace detail {

BodyBatchData packCapsules(const std::vector<PosedCapsule>& capsules) {
    BodyBatchData data;
    data.count = capsules.size();
    for (const PosedCapsule& c : capsules) {
        data.ax.push_back(c.a.x);
        data.ay.push_back(c.a.y);
        data.az.push_back(c.a.z);
        data.bx.push_back(c.b.x);
        data.by.push_back(c.b.y);
        data.bz.push_back(c.b.z);
        const Vec3f ab = c.b - c.a;
        data.abx.push_back(ab.x);
        data.aby.push_back(ab.y);
        data.abz.push_back(ab.z);
        data.len2.push_back(ab.norm2());
        data.ra.push_back(c.ra);
        data.rb.push_back(c.rb);
        data.drr.push_back(c.rb - c.ra);
        // Conservative per-capsule data for the per-query skip test: the
        // segment's axis-aligned box plus the larger end radius. For any
        // point, capsuleDistance >= dist(point, segment box) - rmax, so
        //   dist2(q, box) > (d + kFieldBlend + rmax)^2
        // certifies the capsule's smooth-min contribution is the identity.
        const Vec3f lo{std::min(c.a.x, c.b.x), std::min(c.a.y, c.b.y),
                       std::min(c.a.z, c.b.z)};
        const Vec3f hi{std::max(c.a.x, c.b.x), std::max(c.a.y, c.b.y),
                       std::max(c.a.z, c.b.z)};
        data.lox.push_back(lo.x);
        data.loy.push_back(lo.y);
        data.loz.push_back(lo.z);
        data.hix.push_back(hi.x);
        data.hiy.push_back(hi.y);
        data.hiz.push_back(hi.z);
        data.rmax.push_back(std::max(c.ra, c.rb));
        data.extent = std::max({data.extent, std::fabs(lo.x), std::fabs(lo.y),
                                std::fabs(lo.z), std::fabs(hi.x), std::fabs(hi.y),
                                std::fabs(hi.z)});
    }
    const std::size_t padded =
        (capsules.size() + kCapsulePad - 1) / kCapsulePad * kCapsulePad;
    for (auto* v : {&data.ax, &data.ay, &data.az, &data.bx, &data.by, &data.bz,
                    &data.ra, &data.rb, &data.lox, &data.loy, &data.loz, &data.hix,
                    &data.hiy, &data.hiz, &data.rmax})
        v->resize(padded, 0.0f);
    return data;
}

CapsuleBounds capsuleBounds(const BodyBatchData& data, Vec3f center) {
    return pickBoundsKernel()(data, center);
}

}  // namespace detail

const char* bodyBatchBackend() {
    if (useAvx2Kernels()) return "avx2";
    if (geom::simd::forcedScalar()) return "scalar";
    return geom::simd::backendName(geom::simd::baselineBackend());
}

BodyField makeBodyField(const Pose& pose, const Skeleton& skeleton,
                        const BodyFieldOptions& options) {
    const SkeletonState state = forwardKinematics(pose, skeleton);
    const std::vector<PosedBone> bones = posedBones(state, pose.shape, skeleton);
    const ExpressionParams expr = pose.expression;
    const RigidTransform headXf = state.worldFromJoint[index(JointId::Head)];
    const RigidTransform headInv = headXf.inverse();
    const Vec3f headRest = Skeleton::canonical().restPosition(JointId::Head);
    const RigidTransform rootInv =
        state.worldFromJoint[index(JointId::Pelvis)].inverse();

    BodyField out;
    out.stats = std::make_shared<BodyFieldStats>();
    out.capsules.reserve(bones.size());
    // Round-cone Lipschitz constant: the radius lerp along the segment
    // adds |ra - rb| / length to the unit distance gradient. The
    // smooth-min fold is a convex combination of its inputs, so the
    // folded field inherits the worst capsule constant.
    float capsuleLip = 1.0f;
    for (const PosedBone& b : bones) {
        out.capsules.push_back({b.a, b.b, b.ra, b.rb});
        const float len = (b.b - b.a).norm();
        if (len > 1e-6f)
            capsuleLip = std::max(capsuleLip, 1.0f + std::fabs(b.ra - b.rb) / len);
    }
    // SoA capsule data shared by the per-point field, the batch kernel
    // and the certificate kernel.
    auto data =
        std::make_shared<detail::BodyBatchData>(detail::packCapsules(out.capsules));

    // Expression warp: the query offset's gradient bound multiplies into
    // the composed field's Lipschitz constant; its region gates (jaw
    // y-gate, smile sign flip, brow gate) contribute bounded jumps that
    // go into the margin instead. Constants follow expressionOffset:
    // amplitude / falloff-radius per component.
    const float a0 = std::fabs(static_cast<float>(expr.coeffs[0]));
    const float a1 = std::fabs(static_cast<float>(expr.coeffs[1]));
    const float a2 = std::fabs(static_cast<float>(expr.coeffs[2]));
    const float a3 = std::fabs(static_cast<float>(expr.coeffs[3]));
    const float offsetLip =
        (0.02f / 0.06f) * a0 + (0.015f / 0.045f) * a1 + (0.012f / 0.07f) * a2 +
        (0.008f / 0.05f) * a3;
    const float offsetJump = 0.02f * a0 + 0.024f * a2 + 0.008f * a3;
    // Largest distance the warp moves a query point: the component
    // amplitudes summed (the rigid head transform preserves length).
    const float maxWarp = 0.02f * a0 + 0.015f * a1 + 0.012f * a2 + 0.008f * a3;
    float lipschitz = capsuleLip * (1.0f + offsetLip);
    float margin = capsuleLip * offsetJump;
    if (options.clothingDetail) {
        // |grad| <= amplitude * max(55, hypot(35, 20)) = 55 * amplitude;
        // the clothed-region y-gates jump by at most the amplitude.
        lipschitz += 55.0f * options.clothingAmplitude;
        margin += options.clothingAmplitude;
    }
    out.lipschitz = lipschitz * 1.02f;  // slack for rounding in the bound
    out.margin = margin + 1e-4f;

    geom::AABB bounds;
    for (const auto& xf : state.worldFromJoint) bounds.expand(xf.translation);
    bounds.inflate(0.18f);
    out.bounds = bounds;

    // Rest-space box covering every expressionOffset falloff region
    // (mouth sphere radius 0.07 around y=0.66, brow sphere radius 0.05
    // around y=0.75, both at z=0.10), inflated by the largest possible
    // offset; posed into world space through the head transform.
    {
        const geom::AABB faceRest{{-0.07f, 0.59f, 0.03f}, {0.07f, 0.80f, 0.17f}};
        geom::AABB face;
        for (int corner = 0; corner < 8; ++corner) {
            const Vec3f local{corner & 1 ? faceRest.hi.x : faceRest.lo.x,
                              corner & 2 ? faceRest.hi.y : faceRest.lo.y,
                              corner & 4 ? faceRest.hi.z : faceRest.lo.z};
            face.expand(headXf.apply(local - headRest));
        }
        face.inflate(0.03f);
        out.faceBounds = face;
    }

    const bool hasExpression = a0 > 0.0f || a1 > 0.0f || a2 > 0.0f || a3 > 0.0f;

    out.field = [bones, data, expr, hasExpression, headXf, headInv, headRest, rootInv,
                 options, stats = out.stats](Vec3f p) {
        Vec3f q = p;
        if (hasExpression) {
            const Vec3f pHeadLocal = headInv.apply(p) + headRest;
            const Vec3f offset = expressionOffset(pHeadLocal, expr);
            if (offset.norm2() > 0.0f) q = p - headXf.applyVector(offset);
        }
        float d = std::numeric_limits<float>::max();
        std::uint32_t blended = 0;
        std::uint32_t pruned = 0;
        for (std::size_t i = 0; i < bones.size(); ++i) {
            if (options.bonePruning) {
                const float t = d + kFieldBlend + data->rmax[i];
                if (t < 0.0f ||
                    aabbDistance2(q, {data->lox[i], data->loy[i], data->loz[i]},
                                  {data->hix[i], data->hiy[i], data->hiz[i]}) > t * t) {
                    ++pruned;
                    continue;
                }
            }
            const PosedBone& b = bones[i];
            d = smin(d, capsuleDistance(q, b.a, b.b, b.ra, b.rb), kFieldBlend);
            ++blended;
        }
        if (options.clothingDetail)
            d += clothingFoldDisplacement(rootInv.apply(p),
                                          options.clothingAmplitude);
        stats->add(blended, pruned, 0);
        return d;
    };

    // SoA batch evaluator: same math, eight lanes at a time. The kernel
    // mirrors the closure above operation for operation, so batch and
    // per-point results are bit-identical (the test suites assert this).
    data->bonePruning = options.bonePruning;
    data->hasExpression = hasExpression;
    data->expr = expr;
    data->faceBounds = out.faceBounds;
    data->maxWarp = maxWarp;
    data->headXf = headXf;
    data->headInv = headInv;
    data->headRest = headRest;
    data->clothingDetail = options.clothingDetail;
    data->clothingAmplitude = options.clothingAmplitude;
    data->rootInv = rootInv;
    out.batch = [data, kernel = pickBatchKernel(), stats = out.stats](
                    const float* xs, const float* ys, const float* zs, float* vals,
                    std::size_t n) {
        std::uint64_t blended = 0;
        std::uint64_t pruned = 0;
        std::uint64_t culled = 0;
        kernel(*data, xs, ys, zs, vals, n, blended, pruned, culled);
        stats->add(blended, pruned, culled);
    };

    // Analytic block certificate. For any query q within 'radius' of the
    // center c, with crude (but 1-Lipschitz-in-q) per-capsule bounds:
    //   capsuleDistance_i(q) >= dist(q, segBox_i) - rmax_i
    //                        >= dist(c, segBox_i) - rmax_i - radius
    //   capsuleDistance_i(q) <= min(|q-a_i| - ra_i, |q-b_i| - rb_i)
    //                        <= min(|c-a_i| - ra_i, |c-b_i| - rb_i) + radius
    // and the smooth-min fold satisfies min_i - kFieldBlend <= f <= min_i,
    // so one pass over the capsules brackets f over the whole ball: the
    // capsule-bounds kernel folds the first lines into lb and the second
    // into ub, eight capsules per lane group. The expression warp shifts
    // the query by at most 'maxWarp' but only for points inside the face
    // region, and the clothing displacement adds at most its amplitude:
    // both widen the bracket only when they can apply. No global
    // cone-slope constant ever enters, which is what keeps the shell of
    // unskippable blocks thin for expressive poses.
    const float clothingSlack =
        options.clothingDetail ? options.clothingAmplitude : 0.0f;
    out.certificate = [data, bounds = pickBoundsKernel(), face = out.faceBounds,
                       maxWarp, clothingSlack](Vec3f center, float radius,
                                               float slack) -> bool {
        float r = radius;
        if (maxWarp > 0.0f &&
            aabbDistance2(center, face.lo, face.hi) <= radius * radius)
            r += maxWarp;
        const float clear = r + slack + clothingSlack + 1e-4f;
        const detail::CapsuleBounds b = bounds(*data, center);
        // Exterior: f >= lb - radius - kFieldBlend > slack over the ball.
        if (b.lb - kFieldBlend > clear) return true;
        // Interior: f <= ub + radius < -slack over the ball.
        if (b.ub < -clear) return true;
        return false;
    };
    return out;
}

geom::AABB bodyBounds(const Pose& pose, const Skeleton& skeleton) {
    const SkeletonState state = forwardKinematics(pose, skeleton);
    geom::AABB box;
    for (const auto& xf : state.worldFromJoint) box.expand(xf.translation);
    box.inflate(0.18f);  // largest capsule radius + blend margin
    return box;
}

BodyModel::BodyModel(const ShapeParams& shape, int templateResolution) : shape_(shape) {
    Pose rest;
    rest.shape = shape;
    restState_ = forwardKinematics(rest);
    // The capture-quality template carries clothing-fold detail that
    // keypoint-based reconstruction cannot represent (Figure 2 gap).
    BodyFieldOptions fieldOpt;
    fieldOpt.clothingDetail = true;
    // Bone pruning off: the template feeds byte-exact payload-size
    // expectations downstream, so sampling must reproduce the legacy
    // field bit for bit. Block pruning + the worker pool are certified
    // value-preserving, so they stay on.
    fieldOpt.bonePruning = false;
    const BodyField body = makeBodyField(rest, Skeleton::canonical(), fieldOpt);
    mesh::FieldSampleOptions sampling;
    sampling.pool = &core::sharedPool();
    sampling.lipschitz = body.lipschitz;
    sampling.margin = body.margin;
    sampling.certificate = [&body](Vec3f center, float radius) {
        return body.certificate(center, radius, 0.0f);
    };
    // The batch evaluator is the field's bit-identical SoA companion, so
    // routing sampled blocks through it keeps the byte-exact guarantee.
    sampling.batch = body.batch;
    template_ = mesh::extractIsoSurface(body.field, bodyBounds(rest),
                                        templateResolution, {}, sampling);
    computeSkinWeights();
    paintTexture();
}

void BodyModel::computeSkinWeights() {
    const auto& bones = canonicalBones();
    const float g = girth(shape_);
    weights_.resize(template_.vertexCount());
    for (std::size_t vi = 0; vi < template_.vertexCount(); ++vi) {
        const Vec3f v = template_.vertices[vi];
        // Distance to each bone's surface; keep the best four.
        std::array<std::pair<float, std::uint16_t>, 4> best;
        best.fill({std::numeric_limits<float>::max(), 0});
        for (const Bone& bone : bones) {
            const Vec3f a = restState_.worldFromJoint[index(bone.parent)].translation;
            const Vec3f b = restState_.worldFromJoint[index(bone.child)].translation;
            const float d = std::max(
                0.0f, capsuleDistance(v, a, b, bone.radiusAtParent * g,
                                      bone.radiusAtChild * g));
            // Weight attaches to the child joint (the bone's own joint).
            const auto j = static_cast<std::uint16_t>(index(bone.child));
            if (d < best[3].first) {
                best[3] = {d, j};
                std::sort(best.begin(), best.end(),
                          [](const auto& x, const auto& y) { return x.first < y.first; });
            }
        }
        SkinWeights w;
        float total = 0.0f;
        const float sigma = 0.07f;
        for (std::size_t k = 0; k < 4; ++k) {
            const float wk = std::exp(-best[k].first * best[k].first / (sigma * sigma));
            w.joints[k] = best[k].second;
            w.weights[k] = wk;
            total += wk;
        }
        if (total < 1e-9f) {
            w.weights = {1, 0, 0, 0};
        } else {
            for (float& wk : w.weights) wk /= total;
        }
        weights_[vi] = w;
    }
}

Vec3f groundTruthAlbedo(Vec3f p) {
    // Skin / clothing bands with high-frequency detail so texture error is
    // measurable: shirt between shoulders and hips, trousers below, skin
    // elsewhere; stripes give the "folds" detail the learned texture loses.
    const Vec3f skin{0.87f, 0.67f, 0.53f};
    const Vec3f shirt{0.20f, 0.35f, 0.65f};
    const Vec3f trousers{0.25f, 0.22f, 0.20f};
    Vec3f base = skin;
    if (p.y < -0.05f && p.y > -0.95f) base = trousers;
    if (p.y >= -0.05f && p.y < 0.42f && std::fabs(p.x) < 0.35f) base = shirt;
    // High-frequency stripe detail (simulates cloth folds).
    const float stripes = 0.06f * std::sin(60.0f * p.y) * std::sin(40.0f * p.x);
    return {geom::clamp(base.x + stripes, 0.0f, 1.0f),
            geom::clamp(base.y + stripes, 0.0f, 1.0f),
            geom::clamp(base.z + stripes, 0.0f, 1.0f)};
}

void BodyModel::paintTexture() {
    template_.colors.resize(template_.vertexCount());
    for (std::size_t i = 0; i < template_.vertexCount(); ++i)
        template_.colors[i] = groundTruthAlbedo(template_.vertices[i]);
}

TriMesh BodyModel::deform(const Pose& pose) const {
    TriMesh out = template_;
    const SkeletonState state = forwardKinematics(pose);

    // Per-joint skinning transforms: world(pose) * world(rest)^-1.
    std::array<RigidTransform, kJointCount> skin;
    for (std::size_t j = 0; j < kJointCount; ++j)
        skin[j] = state.worldFromJoint[j] * restState_.worldFromJoint[j].inverse();

    for (std::size_t vi = 0; vi < out.vertexCount(); ++vi) {
        const Vec3f rest = template_.vertices[vi] +
                           expressionOffset(template_.vertices[vi], pose.expression);
        const SkinWeights& w = weights_[vi];
        Vec3f blended{};
        for (std::size_t k = 0; k < 4; ++k) {
            if (w.weights[k] <= 0.0f) continue;
            blended += skin[w.joints[k]].apply(rest) * w.weights[k];
        }
        out.vertices[vi] = blended;
    }
    out.computeVertexNormals();
    return out;
}

}  // namespace semholo::body
