#include "semholo/support/isosurface_legacy.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace semholo::mesh {

namespace {

// The six tetrahedra of a cube, as corner indices (cube corners numbered
// with bit 0 = +x, bit 1 = +y, bit 2 = +z), sharing the main diagonal
// 0-7 so faces of adjacent tetrahedra match up — the decomposition the
// block extractor's case table is built from.
constexpr std::array<std::array<int, 4>, 6> kTets{{
    {0, 5, 1, 7},
    {0, 1, 3, 7},
    {0, 3, 2, 7},
    {0, 2, 6, 7},
    {0, 6, 4, 7},
    {0, 4, 5, 7},
}};

struct EdgeKey {
    std::uint64_t a, b;
    bool operator==(const EdgeKey&) const = default;
};

struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& k) const {
        return std::hash<std::uint64_t>{}(k.a * 0x9e3779b97f4a7c15ull ^ k.b);
    }
};

// Shared marching-tetrahedra pass. When 'sampler' is non-null, cells in
// blocks it certified surface-free are skipped outright — those cells
// provably emit no triangles, so skipping them preserves both the
// triangle set and the vertex insertion order (bit-identical output).
TriMesh extractLegacyImpl(const VoxelGrid& grid, const IsoSurfaceOptions& options,
                          const BlockSampler* sampler) {
    TriMesh out;
    const Vec3i res = grid.resolution();
    if (res.x < 1 || res.y < 1 || res.z < 1) return out;

    // Global node id for edge-interpolation vertex dedup.
    const std::uint64_t nx = static_cast<std::uint64_t>(res.x) + 1;
    const std::uint64_t ny = static_cast<std::uint64_t>(res.y) + 1;
    auto nodeId = [nx, ny](int x, int y, int z) {
        return (static_cast<std::uint64_t>(z) * ny + static_cast<std::uint64_t>(y)) * nx +
               static_cast<std::uint64_t>(x);
    };

    std::unordered_map<EdgeKey, std::uint32_t, EdgeKeyHash> edgeVertex;

    // Emit (or reuse) the vertex where the iso-surface crosses the edge
    // between grid nodes idA and idB.
    auto edgePoint = [&](std::uint64_t idA, Vec3f pA, float vA, std::uint64_t idB,
                         Vec3f pB, float vB) -> std::uint32_t {
        if (idA > idB) {
            std::swap(idA, idB);
            std::swap(pA, pB);
            std::swap(vA, vB);
        }
        const EdgeKey key{idA, idB};
        if (const auto it = edgeVertex.find(key); it != edgeVertex.end())
            return it->second;
        const float denom = vB - vA;
        float t = std::fabs(denom) > 1e-12f ? (options.isoValue - vA) / denom : 0.5f;
        t = geom::clamp(t, 0.0f, 1.0f);
        const auto idx = static_cast<std::uint32_t>(out.vertices.size());
        out.vertices.push_back(geom::lerp(pA, pB, t));
        edgeVertex.emplace(key, idx);
        return idx;
    };

    std::array<Vec3f, 8> corner;
    std::array<float, 8> value;
    std::array<std::uint64_t, 8> id;

    // Orient each triangle so its normal points away from the inside of
    // the tetrahedron (towards higher field values when inside = below
    // iso). Per-triangle orientation keeps the winding globally
    // consistent without a case table.
    auto emitTriangle = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            Vec3f insideRef, bool outward) {
        if (a == b || b == c || a == c) return;
        const Vec3f& pa = out.vertices[a];
        const Vec3f& pb = out.vertices[b];
        const Vec3f& pc = out.vertices[c];
        const Vec3f n = (pb - pa).cross(pc - pa);
        const Vec3f centroid = (pa + pb + pc) / 3.0f;
        const float side = n.dot(centroid - insideRef);
        const bool flip = outward ? side < 0.0f : side > 0.0f;
        if (flip)
            out.triangles.push_back({a, c, b});
        else
            out.triangles.push_back({a, b, c});
    };

    const std::vector<std::uint8_t>* surfaceFree =
        sampler != nullptr ? &sampler->surfaceFree() : nullptr;

    for (int z = 0; z < res.z; ++z) {
        for (int y = 0; y < res.y; ++y) {
            for (int x = 0; x < res.x; ++x) {
                if (surfaceFree != nullptr &&
                    (*surfaceFree)[static_cast<std::size_t>(
                        sampler->cellBlock(x, y, z))] != 0)
                    continue;
                for (int i = 0; i < 8; ++i) {
                    const int cx = x + (i & 1);
                    const int cy = y + ((i >> 1) & 1);
                    const int cz = z + ((i >> 2) & 1);
                    corner[i] = grid.nodePosition(cx, cy, cz);
                    value[i] = grid.at(cx, cy, cz);
                    id[i] = nodeId(cx, cy, cz);
                }

                for (const auto& tet : kTets) {
                    int mask = 0;
                    for (int i = 0; i < 4; ++i)
                        if (value[tet[i]] < options.isoValue) mask |= 1 << i;
                    if (mask == 0 || mask == 15) continue;

                    auto vtx = [&](int i, int j) {
                        return edgePoint(id[tet[i]], corner[tet[i]], value[tet[i]],
                                         id[tet[j]], corner[tet[j]], value[tet[j]]);
                    };

                    // Centroid of the inside corners: the reference point
                    // the surface should face away from.
                    Vec3f insideRef{};
                    int insideCount = 0;
                    for (int i = 0; i < 4; ++i) {
                        if (mask & (1 << i)) {
                            insideRef += corner[tet[i]];
                            ++insideCount;
                        }
                    }
                    insideRef /= static_cast<float>(insideCount);

                    // Work with the canonical 1- or 2-inside pattern.
                    int m = mask;
                    bool complemented = false;
                    if (insideCount > 2) {
                        m = (~m) & 15;
                        complemented = true;
                        // Reference flips to the (former) outside corners.
                        Vec3f ref{};
                        int n = 0;
                        for (int i = 0; i < 4; ++i) {
                            if (m & (1 << i)) {
                                ref += corner[tet[i]];
                                ++n;
                            }
                        }
                        insideRef = ref / static_cast<float>(n);
                    }
                    // After complementing, insideRef points at corners on
                    // the *outside*, so orientation must face towards it.
                    const bool outward = !complemented;

                    switch (m) {
                        case 1:
                            emitTriangle(vtx(0, 1), vtx(0, 2), vtx(0, 3), insideRef,
                                         outward);
                            break;
                        case 2:
                            emitTriangle(vtx(1, 0), vtx(1, 2), vtx(1, 3), insideRef,
                                         outward);
                            break;
                        case 4:
                            emitTriangle(vtx(2, 0), vtx(2, 1), vtx(2, 3), insideRef,
                                         outward);
                            break;
                        case 8:
                            emitTriangle(vtx(3, 0), vtx(3, 1), vtx(3, 2), insideRef,
                                         outward);
                            break;
                        case 3: {  // inside (canonical): {0,1}
                            const auto q0 = vtx(0, 2), q1 = vtx(0, 3), q2 = vtx(1, 3),
                                       q3 = vtx(1, 2);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 5: {  // {0,2}
                            const auto q0 = vtx(0, 1), q1 = vtx(2, 1), q2 = vtx(2, 3),
                                       q3 = vtx(0, 3);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 6: {  // {1,2}
                            const auto q0 = vtx(1, 0), q1 = vtx(2, 0), q2 = vtx(2, 3),
                                       q3 = vtx(1, 3);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 9: {  // {0,3}
                            const auto q0 = vtx(0, 1), q1 = vtx(3, 1), q2 = vtx(3, 2),
                                       q3 = vtx(0, 2);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 10: {  // {1,3}
                            const auto q0 = vtx(1, 0), q1 = vtx(3, 0), q2 = vtx(3, 2),
                                       q3 = vtx(1, 2);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 12: {  // {2,3}
                            const auto q0 = vtx(2, 0), q1 = vtx(3, 0), q2 = vtx(3, 1),
                                       q3 = vtx(2, 1);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        default:
                            break;
                    }
                }
            }
        }
    }

    out.removeDegenerateTriangles();

    if (!options.orientOutward) {
        // Inward orientation requested: flip everything (we always build
        // outward above).
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

TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid, const IsoSurfaceOptions& options) {
    return extractLegacyImpl(grid, options, nullptr);
}

TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid, const BlockSampler& sampler,
                                const IsoSurfaceOptions& options) {
    return extractLegacyImpl(grid, options, &sampler);
}

}  // namespace semholo::mesh
