// Microbenchmarks for iso-surface extraction (google-benchmark): the
// legacy serial cell scan vs the two-pass block-local table-driven
// extractor, serial and pooled, plus the warm topology-reuse path the
// temporal reconstructor hits when block signs are unchanged between
// frames. All variants run over the same sampled body grid so the
// ratios isolate the extraction algorithm from field evaluation.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/recon/keypoint_recon.hpp"
#include "semholo/support/isosurface_legacy.hpp"

namespace semholo {
namespace {

// One sampled grid per resolution, shared by every benchmark variant
// (sampling a 128^3 body field is far more expensive than extraction).
struct Workload {
    std::unique_ptr<mesh::VoxelGrid> grid;
    std::unique_ptr<mesh::BlockSampler> sampler;
};

Workload& workload(int res) {
    static std::map<int, Workload> cache;
    Workload& w = cache[res];
    if (!w.grid) {
        const body::Pose pose =
            body::MotionGenerator(body::MotionKind::Talk).poseAt(0.5);
        const body::BodyField body =
            body::makeBodyField(pose, body::Skeleton::canonical(), {});
        const int block = recon::resolveBlockSize(0, res);
        w.grid = std::make_unique<mesh::VoxelGrid>(body.bounds,
                                                   mesh::Vec3i{res, res, res});
        w.sampler = std::make_unique<mesh::BlockSampler>(*w.grid, block);
        mesh::FieldSampleOptions sampling;
        sampling.blockSize = block;
        sampling.lipschitz = body.lipschitz;
        sampling.margin = body.margin;
        sampling.certificate = [&body](geom::Vec3f c, float r) {
            return body.certificate(c, r, 0.0f);
        };
        sampling.batch = body.batch;
        w.sampler->sample(body.field, sampling);
    }
    return w;
}

mesh::IsoSurfaceOptions reconOptions() {
    mesh::IsoSurfaceOptions opt;  // recon-path config: weld elided
    opt.weldVertices = false;
    return opt;
}

void BM_ExtractLegacy(benchmark::State& state) {
    Workload& w = workload(static_cast<int>(state.range(0)));
    const auto opt = reconOptions();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mesh::extractIsoSurfaceLegacy(*w.grid, *w.sampler, opt));
}
BENCHMARK(BM_ExtractLegacy)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ExtractBlockSerial(benchmark::State& state) {
    Workload& w = workload(static_cast<int>(state.range(0)));
    const auto opt = reconOptions();
    for (auto _ : state)
        benchmark::DoNotOptimize(mesh::extractIsoSurface(
            *w.grid, w.sampler.get(), opt, nullptr, nullptr));
}
BENCHMARK(BM_ExtractBlockSerial)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ExtractBlockPooled(benchmark::State& state) {
    Workload& w = workload(static_cast<int>(state.range(0)));
    core::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    auto opt = reconOptions();
    opt.pool = &pool;
    for (auto _ : state)
        benchmark::DoNotOptimize(mesh::extractIsoSurface(
            *w.grid, w.sampler.get(), opt, nullptr, nullptr));
}
BENCHMARK(BM_ExtractBlockPooled)
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({128, 8})
    ->Unit(benchmark::kMillisecond);

void BM_ExtractTopologyReuse(benchmark::State& state) {
    Workload& w = workload(static_cast<int>(state.range(0)));
    const auto opt = reconOptions();
    mesh::IsoExtractCache cache;
    // Cold fill outside the timed loop; every timed pass re-extracts the
    // unchanged grid, so all live blocks hit the sign-unchanged reuse
    // path (only vertex positions are recomputed).
    mesh::extractIsoSurface(*w.grid, w.sampler.get(), opt, &cache, nullptr);
    mesh::ExtractStats stats;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mesh::extractIsoSurface(*w.grid, w.sampler.get(), opt, &cache, &stats));
    state.counters["reused_blocks"] =
        static_cast<double>(stats.reusedTopologyBlocks);
}
BENCHMARK(BM_ExtractTopologyReuse)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semholo

BENCHMARK_MAIN();
