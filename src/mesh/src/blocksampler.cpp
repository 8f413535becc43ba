#include "semholo/mesh/blocksampler.hpp"

#include <algorithm>
#include <cmath>

#include "semholo/core/thread_pool.hpp"

namespace semholo::mesh {

void FieldSampleStats::merge(const FieldSampleStats& other) {
    blocksTotal += other.blocksTotal;
    blocksSampled += other.blocksSampled;
    blocksSkipped += other.blocksSkipped;
    blocksCached += other.blocksCached;
    blocksCoarseFilled += other.blocksCoarseFilled;
    nodesEvaluated += other.nodesEvaluated;
    nodesTotal += other.nodesTotal;
    certTests += other.certTests;
}

BlockSampler::BlockSampler(VoxelGrid& grid, int blockSize)
    : grid_(grid), blockSize_(std::max(1, blockSize)) {
    const Vec3i res = grid.resolution();
    auto div = [this](int nodes) { return (nodes + blockSize_ - 1) / blockSize_; };
    blocks_ = {div(res.x + 1), div(res.y + 1), div(res.z + 1)};
    // Guard region: blockSize-1 cells of owned node span plus one cell on
    // each side. Half-diagonal of a (blockSize+1)-cell box.
    const Vec3f cell = grid.cellSize();
    const float half = 0.5f * static_cast<float>(blockSize_ + 1);
    guardRadius_ = (cell * half).norm();
    // Unknown until a block is processed: extraction must visit it.
    surfaceFree_.assign(static_cast<std::size_t>(blockCount()), 0);
}

Vec3i BlockSampler::blockCoord(int block) const {
    const int bx = block % blocks_.x;
    const int by = (block / blocks_.x) % blocks_.y;
    const int bz = block / (blocks_.x * blocks_.y);
    return {bx, by, bz};
}

BlockSampler::BlockRange BlockSampler::blockRange(int block) const {
    const Vec3i b = blockCoord(block);
    const Vec3i res = grid_.resolution();
    // Each block owns blockSize_ node planes starting at b*blockSize_;
    // the arithmetic ceiling in the constructor guarantees the last block
    // covers the final (res-th) node plane.
    auto hi = [this](int begin, int nodes) {
        return std::min(begin + blockSize_ - 1, nodes);
    };
    const Vec3i lo{b.x * blockSize_, b.y * blockSize_, b.z * blockSize_};
    return {lo, {hi(lo.x, res.x), hi(lo.y, res.y), hi(lo.z, res.z)}};
}

geom::AABB BlockSampler::blockGuardBounds(int block) const {
    const BlockRange r = blockRange(block);
    const Vec3f cell = grid_.cellSize();
    geom::AABB box;
    box.expand(grid_.nodePosition(r.nodeLo.x, r.nodeLo.y, r.nodeLo.z) -
               cell);
    box.expand(grid_.nodePosition(r.nodeHi.x, r.nodeHi.y, r.nodeHi.z) +
               cell);
    return box;
}

Vec3f BlockSampler::blockCenter(int block) const {
    const BlockRange r = blockRange(block);
    const Vec3f lo = grid_.nodePosition(r.nodeLo.x, r.nodeLo.y, r.nodeLo.z);
    const Vec3f hi = grid_.nodePosition(r.nodeHi.x, r.nodeHi.y, r.nodeHi.z);
    return (lo + hi) * 0.5f;
}

std::uint64_t BlockSampler::ownedNodes(int block) const {
    const BlockRange r = blockRange(block);
    return static_cast<std::uint64_t>(r.nodeHi.x - r.nodeLo.x + 1) *
           static_cast<std::uint64_t>(r.nodeHi.y - r.nodeLo.y + 1) *
           static_cast<std::uint64_t>(r.nodeHi.z - r.nodeLo.z + 1);
}

void BlockSampler::fillBlock(int block, float value) {
    const BlockRange r = blockRange(block);
    for (int z = r.nodeLo.z; z <= r.nodeHi.z; ++z)
        for (int y = r.nodeLo.y; y <= r.nodeHi.y; ++y)
            for (int x = r.nodeLo.x; x <= r.nodeHi.x; ++x)
                grid_.at(x, y, z) = value;
}

void BlockSampler::nodeBall(Vec3i lo, Vec3i hi, Vec3f& center,
                            float& radius) const {
    // Guard bounds are monotone in block coordinates, so the union over
    // the range is the box spanned by the two corner blocks' guards.
    const geom::AABB first = blockGuardBounds(blockIndex(lo));
    const geom::AABB last = blockGuardBounds(blockIndex(hi));
    center = (first.lo + last.hi) * 0.5f;
    radius = (last.hi - center).norm();
}

void BlockSampler::probeCenters(const std::vector<Vec3f>& centers,
                                const ScalarField& field,
                                const FieldSampleOptions& options,
                                std::vector<float>& values) const {
    values.resize(centers.size());
    if (centers.empty()) return;
    if (!options.batch) {
        for (std::size_t i = 0; i < centers.size(); ++i) values[i] = field(centers[i]);
        return;
    }
    // The batch evaluator returns each point's per-point bits, so one
    // call over scattered centres fills exactly what per-center probes
    // would.
    std::vector<float> xs(centers.size()), ys(centers.size()), zs(centers.size());
    for (std::size_t i = 0; i < centers.size(); ++i) {
        xs[i] = centers[i].x;
        ys[i] = centers[i].y;
        zs[i] = centers[i].z;
    }
    options.batch(xs.data(), ys.data(), zs.data(), values.data(), centers.size());
}

void BlockSampler::processBlock(int block, const ScalarField& field,
                                const FieldSampleOptions& options,
                                FieldSampleStats& stats, std::vector<int>& certified) {
    const BlockRange r = blockRange(block);
    const auto owned =
        static_cast<std::uint64_t>(r.nodeHi.x - r.nodeLo.x + 1) *
        static_cast<std::uint64_t>(r.nodeHi.y - r.nodeLo.y + 1) *
        static_cast<std::uint64_t>(r.nodeHi.z - r.nodeLo.z + 1);
    stats.nodesTotal += owned;

    if (options.blockPruning) {
        // The true center of the block's guard region can sit past the
        // owned-node midpoint for edge blocks; using the owned-node
        // midpoint with the full guard radius stays conservative because
        // the guard region never extends more than guardRadius_ from it.
        const Vec3f center = blockCenter(block);
        if (options.certificate) {
            // Analytic certificate: no field probe needed to decide. The
            // fill probe is deferred so the caller evaluates the centres
            // of every block it certified in one batch.
            ++stats.certTests;
            if (options.certificate(center, guardRadius_)) {
                certified.push_back(block);
                ++stats.nodesEvaluated;
                ++stats.blocksSkipped;
                surfaceFree_[static_cast<std::size_t>(block)] = 1;
                return;
            }
        } else {
            const float d = field(center);
            ++stats.nodesEvaluated;
            if (std::fabs(d) > options.lipschitz * guardRadius_ + options.margin) {
                // Fill with the (correctly signed) center value so
                // extraction cells that straddle this block see a
                // consistent field.
                fillBlock(block, d);
                ++stats.blocksSkipped;
                surfaceFree_[static_cast<std::size_t>(block)] = 1;
                return;
            }
        }
    }

    if (options.batch) {
        // SoA batch evaluation: one call for the whole block instead of
        // one std::function dispatch per node. Buffers are thread_local
        // so parallel sampling allocates once per worker.
        static thread_local std::vector<float> xs, ys, zs, vals;
        const auto n = static_cast<std::size_t>(owned);
        xs.resize(n);
        ys.resize(n);
        zs.resize(n);
        vals.resize(n);
        std::size_t i = 0;
        for (int z = r.nodeLo.z; z <= r.nodeHi.z; ++z)
            for (int y = r.nodeLo.y; y <= r.nodeHi.y; ++y)
                for (int x = r.nodeLo.x; x <= r.nodeHi.x; ++x, ++i) {
                    const Vec3f p = grid_.nodePosition(x, y, z);
                    xs[i] = p.x;
                    ys[i] = p.y;
                    zs[i] = p.z;
                }
        options.batch(xs.data(), ys.data(), zs.data(), vals.data(), n);
        i = 0;
        for (int z = r.nodeLo.z; z <= r.nodeHi.z; ++z)
            for (int y = r.nodeLo.y; y <= r.nodeHi.y; ++y)
                for (int x = r.nodeLo.x; x <= r.nodeHi.x; ++x, ++i)
                    grid_.at(x, y, z) = vals[i];
    } else {
        for (int z = r.nodeLo.z; z <= r.nodeHi.z; ++z)
            for (int y = r.nodeLo.y; y <= r.nodeHi.y; ++y)
                for (int x = r.nodeLo.x; x <= r.nodeHi.x; ++x)
                    grid_.at(x, y, z) = field(grid_.nodePosition(x, y, z));
    }
    stats.nodesEvaluated += owned;
    ++stats.blocksSampled;
    surfaceFree_[static_cast<std::size_t>(block)] = 0;
}

void BlockSampler::processRange(const std::vector<int>& work,
                                const std::vector<CoarseFill>& fills,
                                const std::vector<float>& probeValues, std::size_t begin,
                                std::size_t end, const ScalarField& field,
                                const FieldSampleOptions& options,
                                FieldSampleStats& stats) {
    std::vector<int> certified;
    for (std::size_t i = begin; i < end; ++i) {
        if (i < work.size()) {
            processBlock(work[i], field, options, stats, certified);
        } else {
            const CoarseFill& f = fills[i - work.size()];
            fillBlock(f.block, probeValues[f.probe]);
        }
    }
    // Fill every leaf the certificate cleared with its centre value
    // (correctly signed, so extraction cells straddling the block see a
    // consistent field).
    std::vector<Vec3f> centers;
    centers.reserve(certified.size());
    for (const int b : certified) centers.push_back(blockCenter(b));
    std::vector<float> values;
    probeCenters(centers, field, options, values);
    for (std::size_t i = 0; i < certified.size(); ++i) fillBlock(certified[i], values[i]);
}

void BlockSampler::descend(Vec3i lo, Vec3i hi,
                           const std::vector<std::uint8_t>& dirtyLeaf,
                           const FieldSampleOptions& options,
                           FieldSampleStats& stats, std::vector<int>& work,
                           std::vector<CoarseFill>& fills,
                           std::vector<Vec3f>& probes) {
    // Skip subtrees with no dirty block (their leaves were already
    // accounted as cached by the prefilter).
    bool anyDirty = false;
    for (int z = lo.z; z <= hi.z && !anyDirty; ++z)
        for (int y = lo.y; y <= hi.y && !anyDirty; ++y)
            for (int x = lo.x; x <= hi.x && !anyDirty; ++x)
                anyDirty = dirtyLeaf[static_cast<std::size_t>(
                               blockIndex({x, y, z}))] != 0;
    if (!anyDirty) return;

    if (lo.x == hi.x && lo.y == hi.y && lo.z == hi.z) {
        // Single block: processBlock runs the leaf certificate as usual.
        work.push_back(blockIndex(lo));
        return;
    }

    // One coarse test covers the whole range: the node ball contains
    // every descendant's guard region, so a certificate that holds here
    // holds for each block individually — and the field's sign is
    // constant across the ball, so one probe's value is a valid fill for
    // every dirty block beneath (extraction cells touching filled nodes
    // lie wholly inside the certified region; see the header proof). The
    // probe at the ball's centre is evaluated after the descent, with
    // every other coarse probe in one batch.
    Vec3f center;
    float radius;
    nodeBall(lo, hi, center, radius);
    ++stats.certTests;
    if (options.certificate(center, radius)) {
        const std::size_t probe = probes.size();
        probes.push_back(center);
        ++stats.nodesEvaluated;
        for (int z = lo.z; z <= hi.z; ++z)
            for (int y = lo.y; y <= hi.y; ++y)
                for (int x = lo.x; x <= hi.x; ++x) {
                    const int b = blockIndex({x, y, z});
                    if (dirtyLeaf[static_cast<std::size_t>(b)] == 0) continue;
                    fills.push_back({b, probe});
                    ++stats.blocksSkipped;
                    ++stats.blocksCoarseFilled;
                    stats.nodesTotal += ownedNodes(b);
                    surfaceFree_[static_cast<std::size_t>(b)] = 1;
                }
        return;
    }

    // Not certifiable at this scale: recurse into up to eight octants.
    const Vec3i mid{lo.x + (hi.x - lo.x) / 2, lo.y + (hi.y - lo.y) / 2,
                    lo.z + (hi.z - lo.z) / 2};
    for (int oz = 0; oz < 2; ++oz)
        for (int oy = 0; oy < 2; ++oy)
            for (int ox = 0; ox < 2; ++ox) {
                const Vec3i clo{ox ? mid.x + 1 : lo.x, oy ? mid.y + 1 : lo.y,
                                oz ? mid.z + 1 : lo.z};
                const Vec3i chi{ox ? hi.x : mid.x, oy ? hi.y : mid.y,
                                oz ? hi.z : mid.z};
                if (clo.x > chi.x || clo.y > chi.y || clo.z > chi.z) continue;
                descend(clo, chi, dirtyLeaf, options, stats, work, fills, probes);
            }
}

FieldSampleStats BlockSampler::sample(const ScalarField& field,
                                      const FieldSampleOptions& options,
                                      const std::vector<std::uint8_t>* dirty) {
    FieldSampleStats total;
    const int count = blockCount();
    total.blocksTotal = static_cast<std::size_t>(count);

    std::vector<int> work;
    work.reserve(static_cast<std::size_t>(count));
    std::vector<CoarseFill> fills;
    std::vector<float> probeValues;
    const bool useOctree = options.blockPruning && options.hierarchical &&
                           static_cast<bool>(options.certificate) && count > 1;
    if (useOctree) {
        std::vector<std::uint8_t> dirtyLeaf(static_cast<std::size_t>(count), 1);
        for (int b = 0; b < count; ++b) {
            if (dirty != nullptr && (*dirty)[static_cast<std::size_t>(b)] == 0) {
                dirtyLeaf[static_cast<std::size_t>(b)] = 0;
                ++total.blocksCached;
                total.nodesTotal += ownedNodes(b);
            }
        }
        // Serial descent decides every block's fate (cert tests are a few
        // capsule-distance bounds each); one batch call then evaluates
        // every coarse node's fill probe. The coarse fills (memory-bound
        // writes whose values never depend on scheduling) fan out below
        // with the leaf blocks.
        std::vector<Vec3f> probes;
        descend({0, 0, 0}, {blocks_.x - 1, blocks_.y - 1, blocks_.z - 1},
                dirtyLeaf, options, total, work, fills, probes);
        probeCenters(probes, field, options, probeValues);
    } else {
        for (int b = 0; b < count; ++b) {
            if (dirty != nullptr && (*dirty)[static_cast<std::size_t>(b)] == 0) {
                ++total.blocksCached;
                total.nodesTotal += ownedNodes(b);
                continue;
            }
            work.push_back(b);
        }
    }

    // Items [0, work.size()) are leaf blocks, the rest coarse fills.
    const std::size_t items = work.size() + fills.size();
    if (options.pool == nullptr || options.pool->size() <= 1 || items <= 1) {
        processRange(work, fills, probeValues, 0, items, field, options, total);
        return total;
    }

    // Chunk the item list so task overhead stays negligible. Chunk
    // boundaries may vary with pool size, but every node value is a pure
    // function of (field, block), so the sampled grid is identical for
    // any worker count; the stats are sums and commute.
    core::ThreadPool& pool = *options.pool;
    const std::size_t chunks =
        std::min(items, std::max<std::size_t>(1, pool.size() * 8));
    std::vector<FieldSampleStats> perChunk(chunks);
    pool.parallelFor(chunks, [&](std::size_t c) {
        processRange(work, fills, probeValues, items * c / chunks,
                     items * (c + 1) / chunks, field, options, perChunk[c]);
    });
    for (const FieldSampleStats& s : perChunk) {
        total.blocksSampled += s.blocksSampled;
        total.blocksSkipped += s.blocksSkipped;
        total.nodesEvaluated += s.nodesEvaluated;
        total.nodesTotal += s.nodesTotal;
        total.certTests += s.certTests;
    }
    return total;
}

}  // namespace semholo::mesh
