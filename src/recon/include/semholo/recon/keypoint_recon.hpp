// Keypoint-based mesh reconstruction — the X-Avatar stand-in at the heart
// of the paper's proof-of-concept (section 4).
//
// Input: keypoints (or an SMPL-X-style pose payload). Pipeline: align the
// keypoints to the parametric skeleton (IK), evaluate the skeleton-
// conditioned implicit field on an R^3 grid, and extract the iso-surface.
// The output resolution R in {128, 256, 512, 1024} is the Figure 2/4
// knob: field evaluation is O(R^3) and dominates, which is exactly why
// the paper measures <3 FPS at 128 and <1 FPS at higher resolutions.
#pragma once

#include <array>

#include "semholo/body/body_model.hpp"
#include "semholo/body/ik.hpp"
#include "semholo/capture/keypoints.hpp"
#include "semholo/recon/device_profile.hpp"

namespace semholo::core {
class ThreadPool;
}

namespace semholo::recon {

using body::kJointCount;
using mesh::TriMesh;

struct ReconstructionOptions {
    // Voxel grid resolution per axis (the paper's "output resolution").
    int resolution{128};
    // Shape parameters assumed for the subject (session constant).
    body::ShapeParams shape{};
    // Device the reconstruction nominally runs on; bounds grid memory.
    DeviceProfile device = DeviceProfile::workstation();
    // Field evaluation pipeline. Sparse tiles the grid into blocks,
    // skips blocks certified surface-free by the field's Lipschitz
    // bound, and fans the rest out over a worker pool; with bonePruning
    // off the mesh is bit-identical to Dense, with it on the surface
    // agrees to ~1e-4 (rounding only). Dense is the legacy serial path.
    ReconMode mode{ReconMode::Sparse};
    // Block edge length in nodes for sparse sampling. 0 picks a
    // resolution-dependent size (see resolveBlockSize): smaller blocks at
    // low resolutions so the guard radius shrinks enough for certificates
    // to fire — the octree amortizes the extra per-block tests.
    int blockSize{0};
    // Worker pool for sparse sampling; nullptr uses the process-wide
    // shared pool. Results do not depend on the pool's worker count.
    core::ThreadPool* pool{nullptr};
    // Per-query capsule pruning inside the field (sparse mode only).
    bool bonePruning{true};
    // Evaluate sampled blocks through BodyField::batch (SIMD lanes)
    // instead of one field call per node. Bit-identical output either
    // way; off is the scalar ablation row in bench_fig4.
    bool simdBatch{true};
    // Test skip certificates on a coarse-to-fine octree and key the
    // temporal cache's support scan on octree nodes (sparse mode only).
    // Off reverts to flat per-block tests — the other ablation row.
    bool octreeCertificates{true};
};

// The block size 'blockSize' resolves to at a given grid resolution
// (returns it unchanged when positive).
int resolveBlockSize(int blockSize, int resolution);

// Counters from one sparse reconstruction (all zero in dense mode).
struct ReconstructionStats {
    std::size_t blocksTotal{0};
    std::size_t blocksSampled{0};
    std::size_t blocksSkipped{0};   // certified surface-free, filled cheaply
    std::size_t blocksCached{0};    // reused from a previous frame
    std::size_t blocksCoarseFilled{0};  // skipped via a certified octree ancestor
    std::uint64_t nodesEvaluated{0};
    std::uint64_t nodesTotal{0};
    std::uint64_t certTests{0};     // analytic certificate invocations
    std::uint64_t bonesBlended{0};  // capsule blends actually executed
    std::uint64_t bonesPruned{0};   // capsule blends skipped via bounds
    std::uint64_t bonesCulled{0};   // of bonesPruned, culled per batch call
    // Extraction-stage counters (set in both modes — the block-local
    // extractor runs everywhere; reusedTopologyBlocks is only nonzero on
    // the temporal path, where SparseReconstructor keeps the topology
    // cache across frames).
    std::uint64_t activeCells{0};           // mixed-sign cells emitted from
    std::uint64_t reusedTopologyBlocks{0};  // blocks whose signs were unchanged
};

struct ReconstructionResult {
    TriMesh mesh;
    bool success{false};
    // "out of memory" when the device profile cannot hold the grid.
    std::string failureReason;
    // Wall-clock cost split (measured on this host).
    double ikMs{0.0};
    double fieldSampleMs{0.0};
    double extractMs{0.0};
    double totalMs() const { return ikMs + fieldSampleMs + extractMs; }
    double fps() const { return totalMs() > 0.0 ? 1000.0 / totalMs() : 0.0; }
    std::size_t gridBytes{0};
    ReconstructionStats stats;
};

// Reconstruct from raw keypoint observations (includes the IK stage).
ReconstructionResult reconstructFromKeypoints(
    const std::array<geom::Vec3f, kJointCount>& keypoints,
    const std::array<float, kJointCount>& confidence,
    const ReconstructionOptions& options = {});

// Reconstruct from an already-aligned pose payload (the wire format of
// Table 2; skips IK).
ReconstructionResult reconstructFromPose(const body::Pose& pose,
                                         const ReconstructionOptions& options = {});

}  // namespace semholo::recon
