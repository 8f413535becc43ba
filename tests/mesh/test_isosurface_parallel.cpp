// Tests for the two-pass block-local table-driven extractor: canonical
// equivalence with the retained legacy extractor, byte-identity across
// worker counts, topology reuse through IsoExtractCache, batch-sampled
// grid identity, and the degenerate/no-crossing edge cases.
#include "semholo/mesh/isosurface.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/blocksampler.hpp"
#include "semholo/support/isosurface_legacy.hpp"

namespace semholo::mesh {
namespace {

geom::AABB unitBounds() {
    return {{-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f}};
}

ScalarField sphereField(Vec3f center, float radius) {
    return [center, radius](Vec3f p) { return (p - center).norm() - radius; };
}

// Capsule SDF between two endpoints — the primitive the body field is
// built from, so extraction sees production-like curvature.
ScalarField capsuleField(Vec3f a, Vec3f b, float radius) {
    return [a, b, radius](Vec3f p) {
        const Vec3f ab = b - a;
        const Vec3f ap = p - a;
        const float denom = ab.dot(ab);
        float t = denom > 0.0f ? ap.dot(ab) / denom : 0.0f;
        t = t < 0.0f ? 0.0f : (t > 1.0f ? 1.0f : t);
        return (p - (a + ab * t)).norm() - radius;
    };
}

// Smooth union of two spheres: a field whose iso-surface changes
// topology with the iso value (one blob vs two).
ScalarField blobField() {
    const auto f1 = sphereField({-0.35f, 0.0f, 0.0f}, 0.4f);
    const auto f2 = sphereField({0.35f, 0.1f, -0.05f}, 0.35f);
    return [f1, f2](Vec3f p) {
        const float a = f1(p), b = f2(p);
        const float k = 0.15f;
        const float h = std::fmax(k - std::fabs(a - b), 0.0f) / k;
        return std::fmin(a, b) - h * h * k * 0.25f;
    };
}

void expectIdenticalMeshes(const TriMesh& a, const TriMesh& b) {
    ASSERT_EQ(a.vertexCount(), b.vertexCount());
    ASSERT_EQ(a.triangleCount(), b.triangleCount());
    for (std::size_t i = 0; i < a.vertexCount(); ++i) {
        ASSERT_EQ(a.vertices[i].x, b.vertices[i].x) << "vertex " << i;
        ASSERT_EQ(a.vertices[i].y, b.vertices[i].y) << "vertex " << i;
        ASSERT_EQ(a.vertices[i].z, b.vertices[i].z) << "vertex " << i;
    }
    for (std::size_t i = 0; i < a.triangleCount(); ++i) {
        ASSERT_EQ(a.triangles[i].a, b.triangles[i].a) << "triangle " << i;
        ASSERT_EQ(a.triangles[i].b, b.triangles[i].b) << "triangle " << i;
        ASSERT_EQ(a.triangles[i].c, b.triangles[i].c) << "triangle " << i;
    }
}

void expectSameTriangleSet(const TriMesh& a, const TriMesh& b) {
    const auto soupA = canonicalTriangleSoup(a);
    const auto soupB = canonicalTriangleSoup(b);
    ASSERT_EQ(soupA.size(), soupB.size());
    for (std::size_t i = 0; i < soupA.size(); ++i)
        for (int v = 0; v < 3; ++v) {
            ASSERT_EQ(soupA[i][v].x, soupB[i][v].x) << "triangle " << i;
            ASSERT_EQ(soupA[i][v].y, soupB[i][v].y) << "triangle " << i;
            ASSERT_EQ(soupA[i][v].z, soupB[i][v].z) << "triangle " << i;
        }
}

TEST(IsoSurfaceParallel, ByteIdenticalAcrossWorkerCounts) {
    const auto field = blobField();
    const int res = 48;
    VoxelGrid grid(unitBounds(), {res, res, res});
    grid.sample(field);

    const TriMesh serial = extractIsoSurface(grid);
    for (const std::size_t workers : {1u, 2u, 8u}) {
        core::ThreadPool pool(workers);
        IsoSurfaceOptions opt;
        opt.pool = &pool;
        const TriMesh pooled = extractIsoSurface(grid, opt);
        expectIdenticalMeshes(serial, pooled);
    }
}

TEST(IsoSurfaceParallel, MatchesLegacyAcrossFieldsAndIsoValues) {
    struct Case {
        const char* name;
        ScalarField field;
    };
    const Case cases[] = {
        {"sphere", sphereField({0.1f, -0.05f, 0.08f}, 0.55f)},
        {"capsule", capsuleField({-0.4f, -0.3f, 0.0f}, {0.35f, 0.4f, 0.1f}, 0.25f)},
        {"blobs", blobField()},
    };
    for (const Case& c : cases)
        for (const int res : {16, 33})
            for (const float iso : {0.0f, 0.08f, -0.05f}) {
                SCOPED_TRACE(std::string(c.name) + " res " +
                             std::to_string(res) + " iso " + std::to_string(iso));
                VoxelGrid grid(unitBounds(), {res, res, res});
                grid.sample(c.field);
                IsoSurfaceOptions opt;
                opt.isoValue = iso;
                // The triangle-set guarantee is on the pre-weld output;
                // welding may pick different epsilon-merge representatives
                // depending on emission order.
                opt.weldVertices = false;
                const TriMesh legacy = extractIsoSurfaceLegacy(grid, opt);
                const TriMesh block = extractIsoSurface(grid, opt);
                ASSERT_GT(block.triangleCount(), 0u)
                    << c.name << " res " << res << " iso " << iso;
                expectSameTriangleSet(legacy, block);
            }
}

TEST(IsoSurfaceParallel, SparseMatchesLegacySparse) {
    const auto field = sphereField({0.0f, 0.05f, -0.1f}, 0.5f);
    const int res = 40;
    VoxelGrid grid(unitBounds(), {res, res, res});
    BlockSampler sampler(grid, 8);
    FieldSampleOptions sampling;  // lipschitz 1.0 exact for the sphere SDF
    sampler.sample(field, sampling);

    IsoSurfaceOptions opt;  // pre-weld comparison, as in the other suites
    opt.weldVertices = false;
    const TriMesh legacy = extractIsoSurfaceLegacy(grid, sampler, opt);
    const TriMesh block = extractIsoSurface(grid, sampler, opt);
    ASSERT_GT(block.triangleCount(), 0u);
    expectSameTriangleSet(legacy, block);
}

TEST(IsoSurfaceParallel, BlockDecompositionDoesNotChangeOutput) {
    // The dense path (no sampler, tiles of 8-node units) and the sparse
    // path (tiles of whole sampler blocks) must emit identical bytes —
    // the canonical ordering is decomposition-independent. Sampler
    // blocks wider than a row word (64) take the dense tiling.
    const auto field = blobField();
    const int res = 40;
    VoxelGrid dense(unitBounds(), {res, res, res});
    dense.sample(field);

    VoxelGrid sparse(unitBounds(), {res, res, res});
    for (const int blockSize : {4, 8, 16, 64}) {
        BlockSampler sampler(sparse, blockSize);
        FieldSampleOptions sampling;
        sampling.blockPruning = false;  // grids identical node-for-node
        sampler.sample(field, sampling);
        expectIdenticalMeshes(extractIsoSurface(dense),
                              extractIsoSurface(sparse, sampler));
    }

    // Block pruning on: certified blocks hold their centre value instead
    // of the sampled ones, but never on a crossing edge, and tiles mixing
    // certified and live blocks scan the certified cells too. Every
    // sampler block size, at resolutions that are not a multiple of the
    // tile, must still emit the dense bytes and the legacy triangle set.
    for (const int r : {40, 67}) {
        VoxelGrid reference(unitBounds(), {r, r, r});
        reference.sample(field);
        IsoSurfaceOptions unwelded;
        unwelded.weldVertices = false;
        const TriMesh want = extractIsoSurface(reference);
        const TriMesh legacy = extractIsoSurfaceLegacy(reference, unwelded);
        for (const int blockSize : {2, 4, 8, 16}) {
            SCOPED_TRACE("res " + std::to_string(r) + " block " +
                         std::to_string(blockSize));
            VoxelGrid pruned(unitBounds(), {r, r, r});
            BlockSampler sampler(pruned, blockSize);
            FieldSampleOptions sampling;  // lipschitz 1.0 holds for the blobs
            const FieldSampleStats fs = sampler.sample(field, sampling);
            ASSERT_GT(fs.blocksSkipped, 0u);
            ASSERT_GT(fs.blocksSampled, 0u);
            expectIdenticalMeshes(want, extractIsoSurface(pruned, sampler));
            expectSameTriangleSet(legacy, extractIsoSurface(pruned, sampler, unwelded));
        }
    }
}

TEST(IsoSurfaceParallel, SingleLiveBlockAtTileCorner) {
    // Exactly one live sampler block, at each of the eight corners of
    // an interior extraction tile whose other blocks are all certified:
    // the tile must still be extracted, and the counters report one
    // live block in sampler units.
    // The grid is certified everywhere by a constant first pass, then
    // only the target block re-samples a small sphere that lies inside
    // its own nodes.
    const int res = 40;
    const int bs = 4;
    const Vec3f cell = VoxelGrid(unitBounds(), {res, res, res}).cellSize();
    for (int corner = 0; corner < 8; ++corner) {
        // Tile (1, 1, 1) covers sampler blocks 4..7 on each axis.
        const Vec3i block{corner & 1 ? 7 : 4, corner & 2 ? 7 : 4, corner & 4 ? 7 : 4};
        SCOPED_TRACE("corner " + std::to_string(corner));
        VoxelGrid grid(unitBounds(), {res, res, res});
        BlockSampler sampler(grid, bs);
        FieldSampleOptions sampling;
        sampler.sample([](Vec3f) { return 1.0f; }, sampling);
        ASSERT_TRUE(std::all_of(sampler.surfaceFree().begin(), sampler.surfaceFree().end(),
                                [](std::uint8_t f) { return f != 0; }));

        const int target = block.x + sampler.blockGrid().x *
                                         (block.y + sampler.blockGrid().y * block.z);
        const Vec3f center = sampler.blockCenter(target);
        std::vector<std::uint8_t> dirty(static_cast<std::size_t>(sampler.blockCount()), 0);
        dirty[static_cast<std::size_t>(target)] = 1;
        FieldSampleOptions full;
        full.blockPruning = false;
        sampler.sample(sphereField(center, 0.9f * cell.x), full, &dirty);
        ASSERT_EQ(sampler.surfaceFree()[static_cast<std::size_t>(target)], 0);

        IsoSurfaceOptions opt;
        opt.weldVertices = false;
        ExtractStats stats;
        const TriMesh m = extractIsoSurface(grid, &sampler, opt, nullptr, &stats);
        ASSERT_GT(m.triangleCount(), 0u);
        EXPECT_EQ(stats.blocksTotal, static_cast<std::size_t>(sampler.blockCount()));
        EXPECT_EQ(stats.blocksExtracted, 1u);
        expectIdenticalMeshes(extractIsoSurface(grid, opt), m);
        expectSameTriangleSet(extractIsoSurfaceLegacy(grid, opt), m);
    }
}

TEST(IsoSurfaceParallel, TopologyReuseIsByteIdentical) {
    const auto field = sphereField({0.02f, -0.03f, 0.0f}, 0.45f);
    const int res = 33;
    VoxelGrid grid(unitBounds(), {res, res, res});
    BlockSampler sampler(grid, 8);
    FieldSampleOptions sampling;
    sampler.sample(field, sampling);

    IsoSurfaceOptions opt;
    IsoExtractCache cache;
    ExtractStats first, second;
    const TriMesh cold = extractIsoSurface(grid, &sampler, opt, &cache, &first);
    EXPECT_EQ(first.reusedTopologyBlocks, 0u);
    EXPECT_GT(first.activeCells, 0u);

    const TriMesh warm = extractIsoSurface(grid, &sampler, opt, &cache, &second);
    EXPECT_GT(second.reusedTopologyBlocks, 0u);
    // Every worked block reuses on an unchanged grid (the reuse counter
    // also covers worked blocks that turned out geometry-free).
    EXPECT_GE(second.reusedTopologyBlocks, second.blocksExtracted);
    EXPECT_EQ(second.activeCells, first.activeCells);
    expectIdenticalMeshes(cold, warm);
}

TEST(IsoSurfaceParallel, TopologyReuseRecomputesVertexPositions) {
    // Scale the field by a spatially varying positive factor: every node
    // keeps its sign (so all topology is reusable) but the crossing
    // parameter t changes, so reused blocks must still re-interpolate.
    const auto field = sphereField({0.0f, 0.0f, 0.0f}, 0.5f);
    const auto warped = [field](Vec3f p) {
        return field(p) * (1.0f + 0.25f * std::sin(3.0f * p.x + p.y));
    };
    const int res = 33;
    VoxelGrid grid(unitBounds(), {res, res, res});
    BlockSampler sampler(grid, 8);
    FieldSampleOptions sampling;
    sampling.blockPruning = false;  // both passes sample every node

    IsoSurfaceOptions opt;
    IsoExtractCache cache;
    ExtractStats stats;
    sampler.sample(field, sampling);
    const TriMesh original = extractIsoSurface(grid, &sampler, opt, &cache, &stats);

    sampler.sample(ScalarField(warped), sampling);
    const TriMesh moved = extractIsoSurface(grid, &sampler, opt, &cache, &stats);
    EXPECT_GT(stats.reusedTopologyBlocks, 0u);

    // Same topology as a cache-free extraction of the warped grid, and
    // byte-identical to it (positions were recomputed, not reused).
    const TriMesh fresh = extractIsoSurface(grid, &sampler, opt, nullptr, nullptr);
    expectIdenticalMeshes(moved, fresh);

    // The warp really moved vertices, so the test is not vacuous.
    ASSERT_EQ(moved.vertexCount(), original.vertexCount());
    bool anyMoved = false;
    for (std::size_t i = 0; i < moved.vertexCount() && !anyMoved; ++i)
        anyMoved = moved.vertices[i].x != original.vertices[i].x ||
                   moved.vertices[i].y != original.vertices[i].y ||
                   moved.vertices[i].z != original.vertices[i].z;
    EXPECT_TRUE(anyMoved);
}

TEST(IsoSurfaceParallel, CacheInvalidatesOnIsoValueChange) {
    const auto field = sphereField({0.0f, 0.0f, 0.0f}, 0.5f);
    const int res = 24;
    VoxelGrid grid(unitBounds(), {res, res, res});
    grid.sample(field);

    IsoSurfaceOptions opt;
    IsoExtractCache cache;
    ExtractStats stats;
    extractIsoSurface(grid, nullptr, opt, &cache, &stats);

    opt.isoValue = 0.1f;
    const TriMesh shifted = extractIsoSurface(grid, nullptr, opt, &cache, &stats);
    EXPECT_EQ(stats.reusedTopologyBlocks, 0u);
    expectIdenticalMeshes(shifted, extractIsoSurface(grid, opt));
}

TEST(IsoSurfaceParallel, NoCrossingProducesEmptyMesh) {
    const int res = 16;
    for (const float value : {1.0f, -1.0f}) {
        VoxelGrid grid(unitBounds(), {res, res, res});
        grid.sample([value](Vec3f) { return value; });
        const TriMesh m = extractIsoSurface(grid);
        EXPECT_EQ(m.vertexCount(), 0u);
        EXPECT_EQ(m.triangleCount(), 0u);
        expectSameTriangleSet(extractIsoSurfaceLegacy(grid), m);
    }
}

TEST(IsoSurfaceParallel, SurfaceClippedByGridBoundary) {
    // Sphere larger than the bounds: the iso-surface exits through every
    // face, exercising the clamped halo rows at the grid edge.
    const auto field = sphereField({0.3f, 0.2f, -0.25f}, 1.1f);
    for (const int res : {15, 32}) {
        VoxelGrid grid(unitBounds(), {res, res, res});
        grid.sample(field);
        const TriMesh legacy = extractIsoSurfaceLegacy(grid);
        const TriMesh block = extractIsoSurface(grid);
        ASSERT_GT(block.triangleCount(), 0u) << "res " << res;
        expectSameTriangleSet(legacy, block);
    }
}

TEST(IsoSurfaceParallel, BatchSampledConvenienceIsByteIdentical) {
    // The dense convenience overload routed through a bit-identical
    // BatchScalarField must produce the same mesh as the scalar path.
    const Vec3f center{0.05f, -0.1f, 0.0f};
    const float radius = 0.5f;
    const auto field = sphereField(center, radius);
    const int res = 33;

    const TriMesh scalar = extractIsoSurface(field, unitBounds(), res);

    IsoSurfaceOptions opt;
    opt.batch = [center, radius](const float* xs, const float* ys,
                                 const float* zs, float* out, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (Vec3f{xs[i], ys[i], zs[i]} - center).norm() - radius;
    };
    const TriMesh batched = extractIsoSurface(field, unitBounds(), res, opt);
    expectIdenticalMeshes(scalar, batched);

    core::ThreadPool pool(4);
    opt.pool = &pool;
    const TriMesh pooled = extractIsoSurface(field, unitBounds(), res, opt);
    expectIdenticalMeshes(scalar, pooled);
}

TEST(IsoSurfaceParallel, WeldOptOutKeepsTriangleSet) {
    const auto field = capsuleField({-0.3f, 0.0f, 0.0f}, {0.3f, 0.2f, 0.0f}, 0.3f);
    const int res = 33;
    VoxelGrid grid(unitBounds(), {res, res, res});
    grid.sample(field);

    IsoSurfaceOptions welded;  // default weldVertices = true
    IsoSurfaceOptions unwelded;
    unwelded.weldVertices = false;
    const TriMesh a = extractIsoSurface(grid, welded);
    const TriMesh b = extractIsoSurface(grid, unwelded);
    // Node-edge dedup already welds shared cell/block boundaries, so for
    // a smooth field missing the nodes the weld pass must be a no-op.
    expectIdenticalMeshes(a, b);
    expectSameTriangleSet(a, b);
}

TEST(IsoSurfaceParallel, StatsCountActiveCellsAndOutput) {
    const auto field = sphereField({0.0f, 0.0f, 0.0f}, 0.5f);
    const int res = 24;
    VoxelGrid grid(unitBounds(), {res, res, res});
    grid.sample(field);

    IsoSurfaceOptions opt;
    opt.weldVertices = false;
    ExtractStats stats;
    const TriMesh m = extractIsoSurface(grid, nullptr, opt, nullptr, &stats);
    EXPECT_GT(stats.blocksTotal, 0u);
    EXPECT_GT(stats.blocksExtracted, 0u);
    EXPECT_LE(stats.blocksExtracted, stats.blocksTotal);
    EXPECT_GT(stats.activeCells, 0u);
    // Pre-cleanup counters bound the final mesh from above (degenerate
    // removal may drop triangles but never adds).
    EXPECT_GE(stats.vertices, m.vertexCount());
    EXPECT_GE(stats.triangles, m.triangleCount());
}

}  // namespace
}  // namespace semholo::mesh
