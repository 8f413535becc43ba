#include "semholo/mesh/isosurface.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "semholo/core/thread_pool.hpp"
#include "semholo/geometry/simd.hpp"

namespace semholo::mesh {

namespace {

// The six tetrahedra of a cube, as corner indices (cube corners numbered
// with bit 0 = +x, bit 1 = +y, bit 2 = +z). This decomposition shares
// the main diagonal 0-7 so faces of adjacent tetrahedra match up. Every
// tet is the chain 0 ⊂ a ⊂ b ⊂ 7 of corner bit sets, which is what the
// edge addressing below relies on.
constexpr std::array<std::array<int, 4>, 6> kTets{{
    {0, 5, 1, 7},
    {0, 1, 3, 7},
    {0, 3, 2, 7},
    {0, 2, 6, 7},
    {0, 6, 4, 7},
    {0, 4, 5, 7},
}};

// ---------------------------------------------------------------------
// Case table.
//
// The 6-tet decomposition uses 19 edge classes per cell: 12 axis edges,
// 6 face diagonals and the main diagonal. Every tet corner pair (ca,cb)
// is nested (ca ⊂ cb or cb ⊂ ca as bit sets), so each edge is uniquely
// addressed by its *base* node (the corner with fewer bits, ca & cb)
// plus a direction dir = ca ^ cb in {1..7}: seven slots per node, not
// three — the diagonals are first-class citizens here. Cell-local edge
// id = baseCorner * 7 + (dir - 1) with baseCorner in {0..6}.
//
// Per cube sign configuration (8 corner bits, bit set = value < iso) the
// table stores the flattened triangle list as triples of cell-local edge
// ids in the legacy extractor's emission order, plus the inputs of its
// per-triangle orientation test: the cube corners whose centroid is the
// inside reference point and the outward/complemented flag. The winding
// itself is NOT baked: in exact arithmetic the side-test sign is an
// invariant of the configuration, but the legacy test runs in float,
// where a near-degenerate sliver's tiny cross product can carry the
// opposite sign — so emission replays the same float test on the actual
// interpolated vertex positions, reproducing legacy's winding bit for
// bit, slivers included.
// ---------------------------------------------------------------------

constexpr int kSlotsPerNode = 7;

struct CaseTable {
    struct Tri {
        std::array<std::uint8_t, 3> e;  // cell-local edge ids, legacy order
        std::uint8_t refA, refB;        // corners averaged into insideRef
                                        // (refB = 0xff when only one)
        bool outward;                   // legacy's !complemented flag
    };
    std::array<std::uint16_t, 256> offset{};
    std::array<std::uint8_t, 256> count{};  // triangles per config
    std::vector<Tri> tris;
};

CaseTable buildCaseTable() {
    CaseTable t;
    t.tris.reserve(2048);

    for (int config = 0; config < 256; ++config) {
        t.offset[config] = static_cast<std::uint16_t>(t.tris.size());
        for (const auto& tet : kTets) {
            int mask = 0;
            for (int i = 0; i < 4; ++i)
                if ((config >> tet[i]) & 1) mask |= 1 << i;
            if (mask == 0 || mask == 15) continue;

            auto edgeId = [&](int i, int j) {
                const int base = tet[i] & tet[j];
                const int dir = tet[i] ^ tet[j];
                return static_cast<std::uint8_t>(base * kSlotsPerNode + dir - 1);
            };

            int insideCount = 0;
            for (int i = 0; i < 4; ++i)
                if (mask & (1 << i)) ++insideCount;

            int m = mask;
            bool complemented = false;
            if (insideCount > 2) {
                m = (~m) & 15;
                complemented = true;
            }
            // The legacy inside reference is the centroid of the corners
            // selected by m (1 or 2 of them after complementing).
            std::uint8_t refA = 0xff, refB = 0xff;
            for (int i = 0; i < 4; ++i) {
                if (m & (1 << i)) {
                    if (refA == 0xff)
                        refA = static_cast<std::uint8_t>(tet[i]);
                    else
                        refB = static_cast<std::uint8_t>(tet[i]);
                }
            }
            const bool outward = !complemented;

            using EP = std::pair<int, int>;
            auto emit = [&](EP ea, EP eb, EP ec) {
                t.tris.push_back({{edgeId(ea.first, ea.second),
                                   edgeId(eb.first, eb.second),
                                   edgeId(ec.first, ec.second)},
                                  refA,
                                  refB,
                                  outward});
            };

            switch (m) {
                case 1:
                    emit({0, 1}, {0, 2}, {0, 3});
                    break;
                case 2:
                    emit({1, 0}, {1, 2}, {1, 3});
                    break;
                case 4:
                    emit({2, 0}, {2, 1}, {2, 3});
                    break;
                case 8:
                    emit({3, 0}, {3, 1}, {3, 2});
                    break;
                case 3:
                    emit({0, 2}, {0, 3}, {1, 3});
                    emit({0, 2}, {1, 3}, {1, 2});
                    break;
                case 5:
                    emit({0, 1}, {2, 1}, {2, 3});
                    emit({0, 1}, {2, 3}, {0, 3});
                    break;
                case 6:
                    emit({1, 0}, {2, 0}, {2, 3});
                    emit({1, 0}, {2, 3}, {1, 3});
                    break;
                case 9:
                    emit({0, 1}, {3, 1}, {3, 2});
                    emit({0, 1}, {3, 2}, {0, 2});
                    break;
                case 10:
                    emit({1, 0}, {3, 0}, {3, 2});
                    emit({1, 0}, {3, 2}, {1, 2});
                    break;
                case 12:
                    emit({2, 0}, {3, 0}, {3, 1});
                    emit({2, 0}, {3, 1}, {2, 1});
                    break;
                default:
                    break;
            }
        }
        t.count[config] =
            static_cast<std::uint8_t>(t.tris.size() - t.offset[config]);
    }
    return t;
}

const CaseTable& caseTable() {
    static const CaseTable table = buildCaseTable();
    return table;
}

// ---------------------------------------------------------------------
// Block-local two-pass extractor.
//
// The grid is tiled into extraction tiles whose edge is the smallest
// multiple of the sampler's block edge that reaches kMinTileSize nodes
// (the dense unit kDenseBlockSize stands in when there is no sampler);
// a tile is live when any sampler block inside it is not certified
// surface-free. Coarse tiles keep the sign-row halo (tile + 2 nodes per
// axis) and the per-tile bookkeeping small against the owned volume;
// sampler blocks stay small for certificate granularity. Pass 1 builds
// per-tile node sign rows — one 64-bit word of (value < iso) bits per
// (z, y) row — with SIMD compares over the contiguous x runs, then
// derives per-tile active-cell lists and exact per-row vertex / triangle
// counts from pure word arithmetic. A serial prefix over those counts
// fixes every tile's output offsets, and pass 2 writes vertices and
// table triangles directly into their final slots: disjoint writes, no
// locks, byte-identical for any worker count.
//
// Output ordering is canonical and decomposition-independent:
//   vertices   ascending (z, y, x, slot) over crossing in-range edges,
//              slot = direction - 1 of the edge's base node;
//   triangles  ascending (z, y, x) over cells, kTets / case-table order
//              within a cell.
// A crossing edge's vertex is emitted by the tile owning its base node
// (node / tileSize per axis), so the vertex set is exactly "one vertex
// per crossing edge" — the same set the legacy hash dedup produces.
//
// Sign rows cover nodes [lo, min(hi + 2, res)] per axis: pass 2 assigns
// ordinals to crossing edges based at halo nodes (hi + 1) owned by
// neighbour tiles, and *their* preceding slots reach endpoints at
// hi + 2. Rows are read straight from the shared grid, so halo overlap
// costs a few redundant compares, not synchronisation.
// ---------------------------------------------------------------------

constexpr int kDenseBlockSize = 8;  // block unit when no sampler is supplied
constexpr int kMinTileSize = 16;    // extraction tiles span at least this
constexpr int kMaxBlockSize = 62;   // halo row (bs + 2 bits) must fit a word

inline std::uint64_t maskBits(int n) {
    return n >= 64 ? ~0ull : ((1ull << n) - 1ull);
}

struct BlockGeom {
    Vec3i lo{};     // first owned node, per axis
    Vec3i owned{};  // owned node counts (vertex rows are owned.z * owned.y)
    Vec3i walk{};   // pass-2 node walk extent: min(hi + 1, res) - lo + 1
    Vec3i halo{};   // sign-row extent: min(hi + 2, res) - lo + 1
    Vec3i cells{};  // owned cell counts
};

struct Tiling {
    Vec3i res{};
    int bs{kDenseBlockSize};
    Vec3i nblocks{};

    Tiling(Vec3i resolution, int blockSize) : res(resolution), bs(blockSize) {
        auto div = [blockSize](int nodes) { return (nodes + blockSize - 1) / blockSize; };
        nblocks = {div(res.x + 1), div(res.y + 1), div(res.z + 1)};
    }
    std::size_t count() const {
        return static_cast<std::size_t>(nblocks.x) * nblocks.y * nblocks.z;
    }
    std::size_t index(int bx, int by, int bz) const {
        return static_cast<std::size_t>(bx) +
               static_cast<std::size_t>(nblocks.x) *
                   (static_cast<std::size_t>(by) +
                    static_cast<std::size_t>(nblocks.y) * static_cast<std::size_t>(bz));
    }
    Vec3i coord(std::size_t b) const {
        return {static_cast<int>(b % nblocks.x),
                static_cast<int>((b / nblocks.x) % nblocks.y),
                static_cast<int>(b / (static_cast<std::size_t>(nblocks.x) * nblocks.y))};
    }
    BlockGeom geom(std::size_t b) const {
        const Vec3i c = coord(b);
        BlockGeom g;
        g.lo = {c.x * bs, c.y * bs, c.z * bs};
        const Vec3i hi{std::min(g.lo.x + bs - 1, res.x), std::min(g.lo.y + bs - 1, res.y),
                       std::min(g.lo.z + bs - 1, res.z)};
        g.owned = {hi.x - g.lo.x + 1, hi.y - g.lo.y + 1, hi.z - g.lo.z + 1};
        g.walk = {std::min(hi.x + 1, res.x) - g.lo.x + 1,
                  std::min(hi.y + 1, res.y) - g.lo.y + 1,
                  std::min(hi.z + 1, res.z) - g.lo.z + 1};
        g.halo = {std::min(hi.x + 2, res.x) - g.lo.x + 1,
                  std::min(hi.y + 2, res.y) - g.lo.y + 1,
                  std::min(hi.z + 2, res.z) - g.lo.z + 1};
        g.cells = {std::max(0, std::min(hi.x, res.x - 1) - g.lo.x + 1),
                   std::max(0, std::min(hi.y, res.y - 1) - g.lo.y + 1),
                   std::max(0, std::min(hi.z, res.z - 1) - g.lo.z + 1)};
        return g;
    }
};

inline std::size_t gridIndex(const Vec3i& res, int x, int y, int z) {
    return (static_cast<std::size_t>(z) * (res.y + 1) + static_cast<std::size_t>(y)) *
               (res.x + 1) +
           static_cast<std::size_t>(x);
}

// Sign rows for one tile: bit j of row (rz, ry) = (value(lo.x + j,
// lo.y + ry, lo.z + rz) < iso). x runs are contiguous in the grid, so
// the compare vectorises; rows are at most bs + 2 <= 64 bits.
void buildSignRows(const VoxelGrid& grid, const BlockGeom& g, float iso,
                   std::vector<std::uint64_t>& rows) {
    rows.assign(static_cast<std::size_t>(g.halo.z) * g.halo.y, 0);
    const Vec3i res = grid.resolution();
    const float* vals = grid.values().data();
    constexpr int W = 4;
    using V = geom::simd::f32xN<W>;
    const V isoW = V::broadcast(iso);
    for (int rz = 0; rz < g.halo.z; ++rz) {
        for (int ry = 0; ry < g.halo.y; ++ry) {
            const float* base = vals + gridIndex(res, g.lo.x, g.lo.y + ry, g.lo.z + rz);
            std::uint64_t w = 0;
            int x = 0;
            for (; x + W <= g.halo.x; x += W) {
                const auto m = geom::simd::cmpLt(V::load(base + x), isoW);
                std::int32_t lanes[W];
                static_assert(sizeof(m) == sizeof(lanes));
                std::memcpy(lanes, &m, sizeof(lanes));
                for (int j = 0; j < W; ++j)
                    w |= static_cast<std::uint64_t>(lanes[j] & 1) << (x + j);
            }
            for (; x < g.halo.x; ++x)
                w |= static_cast<std::uint64_t>(base[x] < iso ? 1u : 0u) << x;
            rows[static_cast<std::size_t>(rz) * g.halo.y + ry] = w;
        }
    }
}

// Crossing bits of one (z, y) node row: bit i of cw[s] is set iff the
// edge from node lo.x + i in direction s + 1 crosses the iso value and
// both endpoints are grid nodes. 'nodeBits' limits the bit range.
inline void crossWords(const std::vector<std::uint64_t>& rows, const BlockGeom& g,
                       int lz, int ly, int nodeBits, std::array<std::uint64_t, 7>& cw) {
    const std::uint64_t row = rows[static_cast<std::size_t>(lz) * g.halo.y + ly];
    const std::uint64_t nodeMask = maskBits(nodeBits);
    for (int s = 0; s < kSlotsPerNode; ++s) {
        const int dir = s + 1;
        const int dx = dir & 1;
        const int dy = (dir >> 1) & 1;
        const int dz = (dir >> 2) & 1;
        if (lz + dz >= g.halo.z || ly + dy >= g.halo.y) {
            cw[s] = 0;
            continue;
        }
        std::uint64_t w =
            (row ^ (rows[static_cast<std::size_t>(lz + dz) * g.halo.y + (ly + dy)] >> dx)) &
            nodeMask;
        if (dx != 0) w &= maskBits(g.halo.x - 1);
        cw[s] = w;
    }
}

// Pass-1 core: active-cell list, case configs and exact per-row counts,
// all from the sign rows (no field values touched).
void computeTopology(const BlockGeom& g, const CaseTable& table,
                     IsoExtractCache::Block& B) {
    B.rowVerts.assign(static_cast<std::size_t>(g.owned.z) * g.owned.y, 0);
    std::array<std::uint64_t, 7> cw;
    std::uint32_t vCount = 0;
    for (int lz = 0; lz < g.owned.z; ++lz) {
        for (int ly = 0; ly < g.owned.y; ++ly) {
            crossWords(B.signRows, g, lz, ly, g.owned.x, cw);
            int c = 0;
            for (int s = 0; s < kSlotsPerNode; ++s) c += std::popcount(cw[s]);
            B.rowVerts[static_cast<std::size_t>(lz) * g.owned.y + ly] =
                static_cast<std::uint16_t>(c);
            vCount += static_cast<std::uint32_t>(c);
        }
    }
    B.vertexCount = vCount;

    B.cells.clear();
    B.rowTris.assign(static_cast<std::size_t>(g.cells.z) * g.cells.y, 0);
    std::uint32_t tCount = 0;
    const std::uint64_t cellMask = maskBits(g.cells.x);
    for (int lz = 0; lz < g.cells.z; ++lz) {
        for (int ly = 0; ly < g.cells.y; ++ly) {
            const std::uint64_t a0 =
                B.signRows[static_cast<std::size_t>(lz) * g.halo.y + ly];
            const std::uint64_t a1 =
                B.signRows[static_cast<std::size_t>(lz) * g.halo.y + ly + 1];
            const std::uint64_t a2 =
                B.signRows[static_cast<std::size_t>(lz + 1) * g.halo.y + ly];
            const std::uint64_t a3 =
                B.signRows[static_cast<std::size_t>(lz + 1) * g.halo.y + ly + 1];
            const std::uint64_t allIn =
                a0 & (a0 >> 1) & a1 & (a1 >> 1) & a2 & (a2 >> 1) & a3 & (a3 >> 1);
            const std::uint64_t allOut = ~a0 & (~a0 >> 1) & ~a1 & (~a1 >> 1) & ~a2 &
                                         (~a2 >> 1) & ~a3 & (~a3 >> 1);
            std::uint64_t mixed = ~(allIn | allOut) & cellMask;
            std::uint16_t rowT = 0;
            while (mixed != 0) {
                const int lx = std::countr_zero(mixed);
                mixed &= mixed - 1;
                const int config =
                    static_cast<int>((a0 >> lx) & 1) |
                    (static_cast<int>((a0 >> (lx + 1)) & 1) << 1) |
                    (static_cast<int>((a1 >> lx) & 1) << 2) |
                    (static_cast<int>((a1 >> (lx + 1)) & 1) << 3) |
                    (static_cast<int>((a2 >> lx) & 1) << 4) |
                    (static_cast<int>((a2 >> (lx + 1)) & 1) << 5) |
                    (static_cast<int>((a3 >> lx) & 1) << 6) |
                    (static_cast<int>((a3 >> (lx + 1)) & 1) << 7);
                B.cells.push_back(static_cast<std::uint32_t>(lx) |
                                  (static_cast<std::uint32_t>(ly) << 6) |
                                  (static_cast<std::uint32_t>(lz) << 12) |
                                  (static_cast<std::uint32_t>(config) << 18));
                rowT = static_cast<std::uint16_t>(rowT + table.count[config]);
            }
            B.rowTris[static_cast<std::size_t>(lz) * g.cells.y + ly] = rowT;
            tCount += rowT;
        }
    }
    B.triangleCount = tCount;
    B.segBaseV.assign(B.rowVerts.size(), 0);
    B.segBaseT.assign(B.rowTris.size(), 0);
}

// Chunked fan-out: one task per chunk (ThreadPool::parallelFor submits a
// future per index, so feeding it raw block counts would drown in task
// overhead). fn(begin, end) over [0, count).
template <typename F>
void parallelChunks(core::ThreadPool* pool, std::size_t count, F&& fn) {
    if (count == 0) return;
    if (pool == nullptr || pool->size() <= 1 || count <= 1) {
        fn(std::size_t{0}, count);
        return;
    }
    const std::size_t chunks =
        std::min(count, std::max<std::size_t>(1, pool->size() * 4));
    pool->parallelFor(chunks, [&](std::size_t c) {
        fn(count * c / chunks, count * (c + 1) / chunks);
    });
}

TriMesh extractBlockImpl(const VoxelGrid& grid, const BlockSampler* sampler,
                         const IsoSurfaceOptions& options, IsoExtractCache* cache,
                         ExtractStats* stats) {
    TriMesh out;
    if (stats != nullptr) *stats = {};
    const Vec3i res = grid.resolution();
    if (res.x < 1 || res.y < 1 || res.z < 1) return out;

    int unit = kDenseBlockSize;
    if (sampler != nullptr && sampler->blockSize() <= kMaxBlockSize) {
        unit = sampler->blockSize();
    } else {
        // No sampler, or sampler blocks too wide for the row words: scan
        // every cell on the dense tiling. Cells of certified surface-free
        // blocks emit no triangles and the output is canonical across
        // block decompositions, so the mesh is the same as on the
        // sampler's.
        sampler = nullptr;
    }
    // Tiles are whole sampler blocks, perTile per axis, so a tile's
    // liveness is exactly its blocks' surface-free flags; the tile edge
    // stays below max(unit, 2 * kMinTileSize), so it fits the row words.
    const int perTile = (kMinTileSize + unit - 1) / unit;
    const int bs = perTile * unit;

    const Tiling tiling(res, bs);
    const Tiling units(res, unit);
    const std::size_t numBlocks = tiling.count();
    const CaseTable& table = caseTable();
    const float iso = options.isoValue;

    IsoExtractCache local;
    IsoExtractCache& C = cache != nullptr ? *cache : local;
    const bool fingerprintMatches =
        C.res.x == res.x && C.res.y == res.y && C.res.z == res.z &&
        C.boundsLo.x == grid.bounds().lo.x && C.boundsLo.y == grid.bounds().lo.y &&
        C.boundsLo.z == grid.bounds().lo.z && C.boundsHi.x == grid.bounds().hi.x &&
        C.boundsHi.y == grid.bounds().hi.y && C.boundsHi.z == grid.bounds().hi.z &&
        C.isoValue == iso && C.blockSize == bs;
    if (!fingerprintMatches) {
        C.clear();
        C.res = res;
        C.boundsLo = grid.bounds().lo;
        C.boundsHi = grid.bounds().hi;
        C.isoValue = iso;
        C.blockSize = bs;
    }
    C.slot.resize(numBlocks, -1);

    // Work list: every tile holding a block not certified surface-free.
    // Certified blocks hold no crossing edge anywhere in their node set
    // (the certificate's guard ball covers one node ring beyond the
    // block), so skipping all-certified tiles drops neither vertices nor
    // triangles, and the certified cells of a live tile emit nothing.
    // liveUnits counts each work tile's uncertified blocks: the stats
    // report blocks in the sampler's units, whatever the tile size.
    const std::vector<std::uint8_t>* surfaceFree =
        sampler != nullptr ? &sampler->surfaceFree() : nullptr;
    std::vector<std::uint32_t> work;
    std::vector<std::uint32_t> liveUnits;
    work.reserve(surfaceFree != nullptr ? numBlocks / 4 + 1 : numBlocks);
    liveUnits.reserve(work.capacity());
    for (std::size_t b = 0; b < numBlocks; ++b) {
        const Vec3i t = tiling.coord(b);
        const Vec3i u0{t.x * perTile, t.y * perTile, t.z * perTile};
        const Vec3i u1{std::min(u0.x + perTile, units.nblocks.x),
                       std::min(u0.y + perTile, units.nblocks.y),
                       std::min(u0.z + perTile, units.nblocks.z)};
        std::uint32_t live = 0;
        for (int uz = u0.z; uz < u1.z; ++uz)
            for (int uy = u0.y; uy < u1.y; ++uy)
                for (int ux = u0.x; ux < u1.x; ++ux)
                    if (surfaceFree == nullptr || (*surfaceFree)[units.index(ux, uy, uz)] == 0)
                        ++live;
        if (live == 0) continue;
        if (C.slot[b] < 0) {
            C.slot[b] = static_cast<std::int32_t>(C.blocks.size());
            C.blocks.emplace_back();
        }
        C.blocks[static_cast<std::size_t>(C.slot[b])].epoch = C.epoch + 1;
        work.push_back(static_cast<std::uint32_t>(b));
        liveUnits.push_back(live);
    }
    ++C.epoch;

    // ---- Pass 1: sign rows + topology (parallel over tiles) ----
    std::atomic<std::size_t> reused{0};
    parallelChunks(options.pool, work.size(), [&](std::size_t i0, std::size_t i1) {
        std::vector<std::uint64_t> fresh;
        std::size_t reusedLocal = 0;
        for (std::size_t i = i0; i < i1; ++i) {
            const std::size_t b = work[i];
            const BlockGeom g = tiling.geom(b);
            IsoExtractCache::Block& B = C.blocks[static_cast<std::size_t>(C.slot[b])];
            buildSignRows(grid, g, iso, fresh);
            if (B.valid && fresh == B.signRows) {
                reusedLocal += liveUnits[i];  // signs unchanged: keep topology,
                continue;  // pass 2 recomputes the vertex positions anyway
            }
            B.signRows.swap(fresh);
            computeTopology(g, table, B);
            B.valid = true;
        }
        reused.fetch_add(reusedLocal, std::memory_order_relaxed);
    });

    // ---- Prefix: canonical global offsets ----
    // Per (z, y) row totals first, then an exclusive scan in row-major
    // (z, y) order, then per-tile segment bases handed out left to
    // right (the work list ascends with bx fastest, so within one row
    // consecutive x segments get consecutive offset runs).
    std::vector<std::uint32_t> rowBaseV(
        static_cast<std::size_t>(res.z + 1) * (res.y + 1), 0);
    std::vector<std::uint32_t> rowBaseT(static_cast<std::size_t>(res.z) * res.y, 0);
    std::size_t blocksExtracted = 0;
    std::uint64_t activeCells = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
        const std::uint32_t b = work[i];
        const BlockGeom g = tiling.geom(b);
        const IsoExtractCache::Block& B = C.blocks[static_cast<std::size_t>(C.slot[b])];
        if (B.vertexCount > 0 || !B.cells.empty()) blocksExtracted += liveUnits[i];
        activeCells += B.cells.size();
        for (int lz = 0; lz < g.owned.z; ++lz)
            for (int ly = 0; ly < g.owned.y; ++ly)
                rowBaseV[static_cast<std::size_t>(g.lo.z + lz) * (res.y + 1) +
                         (g.lo.y + ly)] +=
                    B.rowVerts[static_cast<std::size_t>(lz) * g.owned.y + ly];
        for (int lz = 0; lz < g.cells.z; ++lz)
            for (int ly = 0; ly < g.cells.y; ++ly)
                rowBaseT[static_cast<std::size_t>(g.lo.z + lz) * res.y + (g.lo.y + ly)] +=
                    B.rowTris[static_cast<std::size_t>(lz) * g.cells.y + ly];
    }
    std::uint64_t vTotal = 0;
    for (std::uint32_t& r : rowBaseV) {
        const std::uint32_t c = r;
        r = static_cast<std::uint32_t>(vTotal);
        vTotal += c;
    }
    std::uint64_t tTotal = 0;
    for (std::uint32_t& r : rowBaseT) {
        const std::uint32_t c = r;
        r = static_cast<std::uint32_t>(tTotal);
        tTotal += c;
    }
    for (const std::uint32_t b : work) {
        const BlockGeom g = tiling.geom(b);
        IsoExtractCache::Block& B = C.blocks[static_cast<std::size_t>(C.slot[b])];
        for (int lz = 0; lz < g.owned.z; ++lz) {
            for (int ly = 0; ly < g.owned.y; ++ly) {
                std::uint32_t& cur =
                    rowBaseV[static_cast<std::size_t>(g.lo.z + lz) * (res.y + 1) +
                             (g.lo.y + ly)];
                B.segBaseV[static_cast<std::size_t>(lz) * g.owned.y + ly] = cur;
                cur += B.rowVerts[static_cast<std::size_t>(lz) * g.owned.y + ly];
            }
        }
        for (int lz = 0; lz < g.cells.z; ++lz) {
            for (int ly = 0; ly < g.cells.y; ++ly) {
                std::uint32_t& cur =
                    rowBaseT[static_cast<std::size_t>(g.lo.z + lz) * res.y + (g.lo.y + ly)];
                B.segBaseT[static_cast<std::size_t>(lz) * g.cells.y + ly] = cur;
                cur += B.rowTris[static_cast<std::size_t>(lz) * g.cells.y + ly];
            }
        }
    }

    out.vertices.resize(vTotal);
    out.triangles.resize(tTotal);

    if (stats != nullptr) {
        stats->blocksTotal = units.count();
        stats->blocksExtracted = blocksExtracted;
        stats->reusedTopologyBlocks = reused.load(std::memory_order_relaxed);
        stats->activeCells = activeCells;
        stats->vertices = vTotal;
        stats->triangles = tTotal;
    }

    // ---- Pass 2: geometry into final slots (parallel over tiles) ----
    const float* vals = grid.values().data();
    parallelChunks(options.pool, work.size(), [&](std::size_t i0, std::size_t i1) {
        // Reused across the chunk's tiles: (node, slot) -> tile-local
        // edge number, and per tile-local edge its global vertex index
        // and position.
        std::vector<std::uint32_t> edgeMap;
        std::vector<std::uint32_t> edgeId;
        std::vector<Vec3f> edgePos;
        std::array<std::uint64_t, 7> cw;
        for (std::size_t i = i0; i < i1; ++i) {
            const std::size_t b = work[i];
            const BlockGeom g = tiling.geom(b);
            const IsoExtractCache::Block& B =
                C.blocks[static_cast<std::size_t>(C.slot[b])];
            if (B.vertexCount == 0 && B.cells.empty()) continue;
            edgeMap.resize(static_cast<std::size_t>(g.walk.x) * g.walk.y * g.walk.z *
                           kSlotsPerNode);
            edgeId.clear();
            edgePos.clear();
            const int bx = g.lo.x / bs;

            // Every crossing edge of the walk gets its global vertex
            // index and its position, once. Rows walk in canonical order.
            // Rows owned by this tile start at segBaseV; halo rows (z or
            // y one past the owned range) start at the owner tile's
            // segBaseV — its numbering of the same row prefix is
            // identical because the crossing bits are a pure function of
            // the shared grid. Ordinals continue across the x boundary
            // into the neighbour's segment by construction of the
            // prefix. A halo row whose owner has no topology this pass
            // is certificate-empty: no crossings, nothing to index.
            // Halo positions are the owner's expression on the same two
            // nodes, so they carry the owner's bits; only owned edges
            // write out.vertices (the owner's task writes the rest).
            for (int lz = 0; lz < g.walk.z; ++lz) {
                for (int ly = 0; ly < g.walk.y; ++ly) {
                    const int gy = g.lo.y + ly;
                    const int gz = g.lo.z + lz;
                    const bool ownRow = lz < g.owned.z && ly < g.owned.y;
                    std::uint32_t ord;
                    if (ownRow) {
                        ord = B.segBaseV[static_cast<std::size_t>(lz) * g.owned.y + ly];
                    } else {
                        const std::size_t ob = tiling.index(bx, gy / bs, gz / bs);
                        const std::int32_t os = C.slot[ob];
                        if (os < 0) continue;
                        const IsoExtractCache::Block& OB =
                            C.blocks[static_cast<std::size_t>(os)];
                        if (OB.epoch != C.epoch) continue;
                        const BlockGeom og = tiling.geom(ob);
                        ord = OB.segBaseV[static_cast<std::size_t>(gz - og.lo.z) *
                                              og.owned.y +
                                          (gy - og.lo.y)];
                    }
                    crossWords(B.signRows, g, lz, ly, g.walk.x, cw);
                    std::uint64_t u = cw[0] | cw[1] | cw[2] | cw[3] | cw[4] | cw[5] | cw[6];
                    while (u != 0) {
                        const int lx = std::countr_zero(u);
                        u &= u - 1;
                        const int gx = g.lo.x + lx;
                        const bool owned = ownRow && lx < g.owned.x;
                        for (int s = 0; s < kSlotsPerNode; ++s) {
                            if (((cw[s] >> lx) & 1) == 0) continue;
                            const std::uint32_t idx = ord++;
                            const int dir = s + 1;
                            const int ex = gx + (dir & 1);
                            const int ey = gy + ((dir >> 1) & 1);
                            const int ez = gz + ((dir >> 2) & 1);
                            const float vA = vals[gridIndex(res, gx, gy, gz)];
                            const float vB = vals[gridIndex(res, ex, ey, ez)];
                            const float denom = vB - vA;
                            float t = std::fabs(denom) > 1e-12f ? (iso - vA) / denom : 0.5f;
                            t = geom::clamp(t, 0.0f, 1.0f);
                            const Vec3f p = geom::lerp(grid.nodePosition(gx, gy, gz),
                                                       grid.nodePosition(ex, ey, ez), t);
                            edgeMap[(static_cast<std::size_t>(
                                         (lz * g.walk.y + ly) * g.walk.x + lx)) *
                                        kSlotsPerNode +
                                    s] = static_cast<std::uint32_t>(edgeId.size());
                            edgeId.push_back(idx);
                            edgePos.push_back(p);
                            if (owned) out.vertices[idx] = p;
                        }
                    }
                }
            }

            // Triangles straight from the case table; the active-cell
            // list ascends (z, y, x), so a running index per cell row
            // lands every triangle in its canonical slot. The winding
            // replays the legacy extractor's float side test on the
            // actual interpolated positions (see the case-table header),
            // read from the tile's edge table rather than out.vertices:
            // a triangle may reference a halo vertex another tile's task
            // is writing concurrently.
            int curRow = -1;
            std::uint32_t tIdx = 0;
            for (const std::uint32_t packed : B.cells) {
                const int lx = static_cast<int>(packed & 63u);
                const int ly = static_cast<int>((packed >> 6) & 63u);
                const int lz = static_cast<int>((packed >> 12) & 63u);
                const int config = static_cast<int>((packed >> 18) & 255u);
                const int row = lz * g.cells.y + ly;
                if (row != curRow) {
                    curRow = row;
                    tIdx = B.segBaseT[static_cast<std::size_t>(row)];
                }
                auto cornerPos = [&](int c) {
                    return grid.nodePosition(g.lo.x + lx + (c & 1),
                                             g.lo.y + ly + ((c >> 1) & 1),
                                             g.lo.z + lz + ((c >> 2) & 1));
                };
                const std::uint16_t off = table.offset[config];
                const int n = table.count[config];
                for (int k = 0; k < n; ++k) {
                    const CaseTable::Tri& tri = table.tris[off + k];
                    std::uint32_t id[3];
                    Vec3f pos[3];
                    for (int v = 0; v < 3; ++v) {
                        const int cornerBits = tri.e[v] / kSlotsPerNode;
                        const int s = tri.e[v] % kSlotsPerNode;
                        const int nx = lx + (cornerBits & 1);
                        const int ny = ly + ((cornerBits >> 1) & 1);
                        const int nz = lz + ((cornerBits >> 2) & 1);
                        const std::uint32_t e =
                            edgeMap[(static_cast<std::size_t>(
                                        (nz * g.walk.y + ny) * g.walk.x + nx)) *
                                        kSlotsPerNode +
                                    s];
                        id[v] = edgeId[e];
                        pos[v] = edgePos[e];
                    }
                    // Legacy emitTriangle, bit for bit: same inside
                    // reference (centroid of 1 or 2 corners — += then
                    // /= count, both exact re-associations), same cross
                    // / dot order, same comparison.
                    Vec3f insideRef = cornerPos(tri.refA);
                    if (tri.refB != 0xff) {
                        insideRef += cornerPos(tri.refB);
                        insideRef /= 2.0f;
                    }
                    const Vec3f nrm = (pos[1] - pos[0]).cross(pos[2] - pos[0]);
                    const Vec3f centroid = (pos[0] + pos[1] + pos[2]) / 3.0f;
                    const float side = nrm.dot(centroid - insideRef);
                    const bool flip = tri.outward ? side < 0.0f : side > 0.0f;
                    out.triangles[tIdx++] = flip ? Triangle{id[0], id[2], id[1]}
                                                 : Triangle{id[0], id[1], id[2]};
                }
            }
        }
    });

    // Renumber vertices by first use in the (canonical) triangle stream.
    // The lattice (z, y, x, slot) numbering the passes emit under is
    // convenient for disjoint writes but spreads a triangle's indices
    // across whole grid rows, which ruins the delta locality the mesh
    // codec's varint stage feeds on. First-use order restores the legacy
    // extractor's index locality and is still a pure function of the
    // canonical triangle order, so worker-count and block-decomposition
    // invariance are untouched.
    if (vTotal > 0) {
        constexpr std::uint32_t kUnseen = 0xffffffffu;
        std::vector<std::uint32_t> remap(vTotal, kUnseen);
        std::vector<Vec3f> reordered(vTotal);
        std::uint32_t next = 0;
        for (Triangle& tri : out.triangles) {
            for (std::uint32_t* idx : {&tri.a, &tri.b, &tri.c}) {
                std::uint32_t& r = remap[*idx];
                if (r == kUnseen) {
                    r = next;
                    reordered[next] = out.vertices[*idx];
                    ++next;
                }
                *idx = r;
            }
        }
        // Every crossing edge is referenced by an active tet, so this
        // loop only runs on malformed input; kept for safety.
        for (std::size_t v = 0; v < vTotal; ++v) {
            if (remap[v] == kUnseen) reordered[next++] = out.vertices[v];
        }
        out.vertices = std::move(reordered);
    }

    // Same post-pass as the legacy extractor, in the same order.
    out.removeDegenerateTriangles();

    if (!options.orientOutward) {
        for (Triangle& tri : out.triangles) std::swap(tri.b, tri.c);
    }

    if (options.weldVertices) {
        const float eps = 1e-5f * grid.bounds().diagonal();
        out.weldVertices(eps);
    }
    out.computeVertexNormals();
    return out;
}

}  // namespace

TriMesh extractIsoSurface(const VoxelGrid& grid, const BlockSampler* sampler,
                          const IsoSurfaceOptions& options, IsoExtractCache* cache,
                          ExtractStats* stats) {
    return extractBlockImpl(grid, sampler, options, cache, stats);
}

TriMesh extractIsoSurface(const VoxelGrid& grid, const IsoSurfaceOptions& options) {
    return extractBlockImpl(grid, nullptr, options, nullptr, nullptr);
}

TriMesh extractIsoSurface(const VoxelGrid& grid, const BlockSampler& sampler,
                          const IsoSurfaceOptions& options) {
    return extractBlockImpl(grid, &sampler, options, nullptr, nullptr);
}

TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options) {
    VoxelGrid grid(bounds, {resolution, resolution, resolution});
    if (options.batch)
        grid.sample(field, options.batch, options.pool);
    else
        grid.sample(field);
    return extractIsoSurface(grid, options);
}

TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options,
                          const FieldSampleOptions& sampling,
                          FieldSampleStats* stats) {
    VoxelGrid grid(bounds, {resolution, resolution, resolution});
    BlockSampler sampler(grid, sampling.blockSize);
    const FieldSampleStats s = sampler.sample(field, sampling);
    if (stats != nullptr) *stats = s;
    return extractIsoSurface(grid, sampler, options);
}

}  // namespace semholo::mesh
