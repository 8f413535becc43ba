#include "semholo/recon/keypoint_recon.hpp"

#include <chrono>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/isosurface.hpp"

namespace semholo::recon {

namespace {

double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int resolveBlockSize(int blockSize, int resolution) {
    if (blockSize > 0) return blockSize;
    // The guard radius scales with blockSize * cellSize, and blocks only
    // skip when the certificate clears it: at low resolutions 8-node
    // blocks have guards so wide almost nothing certifies
    // (node_eval_fraction ~1 at 32^3/64^3 in BENCH_fig4). Halving the
    // edge quarters the guard; the octree keeps the 8x block count from
    // costing 8x certificate tests.
    return resolution <= 160 ? 4 : 8;
}

ReconstructionResult reconstructFromPose(const body::Pose& pose,
                                         const ReconstructionOptions& options) {
    ReconstructionResult result;
    const int blockSize = resolveBlockSize(options.blockSize, options.resolution);
    result.gridBytes = reconstructionWorkingSetBytes(options.resolution,
                                                     options.mode, blockSize);
    if (!options.device.fitsInMemory(result.gridBytes)) {
        result.failureReason = "out of memory on " + options.device.name;
        return result;
    }

    const mesh::Vec3i res{options.resolution, options.resolution,
                          options.resolution};

    if (options.mode == ReconMode::Dense) {
        // Keypoints carry no garment information: the reconstruction field
        // has no clothing detail (Figure 2's unrecoverable folds).
        const auto field = body::bodySignedDistance(pose);
        const auto bounds = body::bodyBounds(pose);

        auto t0 = std::chrono::steady_clock::now();
        mesh::VoxelGrid grid(bounds, res);
        grid.sample(field);
        result.fieldSampleMs = msSince(t0);

        t0 = std::chrono::steady_clock::now();
        // The extractor emits one vertex per crossing edge (shared
        // boundaries welded by construction) and the capsule field never
        // hits the iso value exactly at grid nodes, so the post-weld
        // pass is pure overhead here — skip it. Dense stays serial: it
        // is the single-core baseline the sparse speedup is gated
        // against.
        mesh::IsoSurfaceOptions iso;
        iso.weldVertices = false;
        mesh::ExtractStats es;
        result.mesh = mesh::extractIsoSurface(grid, nullptr, iso, nullptr, &es);
        result.stats.activeCells = es.activeCells;
        result.extractMs = msSince(t0);
    } else {
        body::BodyFieldOptions fieldOpt;
        fieldOpt.bonePruning = options.bonePruning;
        const body::BodyField body =
            body::makeBodyField(pose, body::Skeleton::canonical(), fieldOpt);

        mesh::FieldSampleOptions sampling;
        sampling.blockSize = blockSize;
        sampling.pool = options.pool != nullptr ? options.pool : &core::sharedPool();
        sampling.lipschitz = body.lipschitz;
        sampling.margin = body.margin;
        sampling.certificate = [&body](geom::Vec3f center, float radius) {
            return body.certificate(center, radius, 0.0f);
        };
        if (options.simdBatch) sampling.batch = body.batch;
        sampling.hierarchical = options.octreeCertificates;

        auto t0 = std::chrono::steady_clock::now();
        mesh::VoxelGrid grid(body.bounds, res);
        mesh::BlockSampler sampler(grid, sampling.blockSize);
        const mesh::FieldSampleStats fs = sampler.sample(body.field, sampling);
        result.fieldSampleMs = msSince(t0);

        result.stats.blocksTotal = fs.blocksTotal;
        result.stats.blocksSampled = fs.blocksSampled;
        result.stats.blocksSkipped = fs.blocksSkipped;
        result.stats.blocksCached = fs.blocksCached;
        result.stats.blocksCoarseFilled = fs.blocksCoarseFilled;
        result.stats.nodesEvaluated = fs.nodesEvaluated;
        result.stats.nodesTotal = fs.nodesTotal;
        result.stats.certTests = fs.certTests;
        result.stats.bonesBlended = body.stats->bonesBlended();
        result.stats.bonesPruned = body.stats->bonesPruned();
        result.stats.bonesCulled = body.stats->bonesCulled();

        t0 = std::chrono::steady_clock::now();
        // Same weld opt-out as dense (identical meshes either way); the
        // extraction fans out over the sampling pool — output is
        // byte-identical for any worker count.
        mesh::IsoSurfaceOptions iso;
        iso.weldVertices = false;
        iso.pool = sampling.pool;
        mesh::ExtractStats es;
        result.mesh = mesh::extractIsoSurface(grid, &sampler, iso, nullptr, &es);
        result.stats.activeCells = es.activeCells;
        result.stats.reusedTopologyBlocks = es.reusedTopologyBlocks;
        result.extractMs = msSince(t0);
    }
    result.success = !result.mesh.empty();
    if (!result.success) result.failureReason = "empty iso-surface";
    return result;
}

ReconstructionResult reconstructFromKeypoints(
    const std::array<geom::Vec3f, kJointCount>& keypoints,
    const std::array<float, kJointCount>& confidence,
    const ReconstructionOptions& options) {
    const auto t0 = std::chrono::steady_clock::now();
    body::IkOptions ik;
    ik.shape = options.shape;
    const body::IkResult fit = body::fitPoseToKeypoints(keypoints, confidence, ik);
    const double ikMs = msSince(t0);

    ReconstructionResult result = reconstructFromPose(fit.pose, options);
    result.ikMs = ikMs;
    return result;
}

}  // namespace semholo::recon
