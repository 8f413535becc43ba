// perfbench: one measured run of one SemHolo workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// Normally started through perfbench/run.py, which builds it first.
// --trace 0 prints every end-to-end metric; --trace 1 runs the workload
// untraced and then traced for half the time each, and prints every
// per-layer metric plus the tracing overhead. Both print each metric with
// its unit and sample count, write a result document (and with --trace 1
// a Chrome trace) under --out, and end with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any correctness check fails, 2 on bad usage.
//
// The whole run is held on kCpus CPUs: the library's shared pool and the
// engine workers keep their threads, but those take turns on the chosen
// CPUs. On a shared host the CPUs come and go with the neighbours' load,
// and a frame that fans out over all of them waits for the slowest; on a
// few, with the rest left to the host, the figures repeat from run to run.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "semholo/body/body_model.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using semholo::core::telemetry::JsonWriter;

// ---- Metric registry -------------------------------------------------------
//
// Names, units and directions match BENCHMARK.json; 'moves' records which
// end-to-end metric a per-layer metric should move, and on which workload.

struct MetricDef {
    const char* name;
    const char* unit;
    const char* better;
    const char* moves;
};

const std::vector<MetricDef>& endToEndMetrics() {
    static const std::vector<MetricDef> defs{
        {"fps", "1/s", "higher",
         "rendered frames per wall second of engine time; faster half of repeats"},
        {"frame_ms_p50", "ms", "lower",
         "encode call to decode return per (user, frame); faster half of repeats"},
        {"frame_ms_p95", "ms", "lower",
         "encode call to decode return per (user, frame); faster half of repeats"},
        {"uplink_mbps", "Mbps", "lower", "uplink wire bytes at 30 fps, all participants"},
        {"chamfer_mm", "mm", "lower", "decoded keypoint mesh vs ground truth, sampled frames"},
        {"rendered_frac", "fraction", "higher", "captured frames rendered (1 - failed_frac)"},
        {"jain", "index", "higher", "Jain index of per-user delivery ratios"},
        {"peak_rss_mb", "MB", "lower", "peak resident set of the run"},
        {"setup_s", "s", "lower", "body model, channels and a warm-up frame; median"},
    };
    return defs;
}

const std::vector<MetricDef>& perLayerMetrics() {
    static const std::vector<MetricDef> defs{
        {"recon.total_ms", "ms", "lower", "fps, frame_ms on solo-*; barely conference-8"},
        {"recon.field_ms", "ms", "lower", "fps, frame_ms on solo-*; barely conference-8"},
        {"recon.extract_ms", "ms", "lower", "fps, frame_ms on solo-*; barely conference-8"},
        {"body.ik_ms", "ms", "lower", "fps, frame_ms on solo-*; barely conference-8"},
        {"recon.node_eval_frac", "fraction", "lower", "fps, frame_ms on solo-*"},
        {"recon.blocks_skipped_frac", "fraction", "higher", "fps, frame_ms on solo-*"},
        {"recon.cert_tests", "count", "lower", "fps, frame_ms on solo-*"},
        {"mesh.active_cells", "count", "lower", "fps, frame_ms on solo-*"},
        {"mesh.triangles", "count", "lower", "fps, frame_ms on solo-*; chamfer_mm"},
        {"recon.blocks_cached_frac", "fraction", "higher",
         "fps up on solo-talk-128, solo-walk-128 no worse"},
        {"recon.reused_topology_frac", "fraction", "higher",
         "fps up on solo-talk-128, solo-walk-128 no worse"},
        {"compress.pose_encode_ms", "ms", "lower", "under 1% of a frame"},
        {"compress.pose_decode_ms", "ms", "lower", "under 1% of a frame"},
        {"compress.pose_ratio", "ratio", "higher", "uplink_mbps on every workload"},
        {"core.encode_ms.keypoint", "ms", "lower", "fps on conference-8"},
        {"core.encode_ms.adaptive-mesh", "ms", "lower", "fps on conference-8"},
        {"core.encode_ms.foveated", "ms", "lower", "fps on conference-8"},
        {"core.encode_ms.text", "ms", "lower", "fps on conference-8"},
        {"core.decode_ms.keypoint", "ms", "lower", "fps on every workload"},
        {"core.decode_ms.adaptive-mesh", "ms", "lower", "fps on conference-8"},
        {"core.decode_ms.foveated", "ms", "lower", "fps on conference-8"},
        {"core.decode_ms.text", "ms", "lower", "fps on conference-8"},
        {"core.engine_self_ms", "ms", "lower",
         "fps, frame_ms_p95, peak_rss_mb on conference-8; solo-* unchanged"},
        {"core.handoff_ms", "ms", "lower", "frame_ms_p95 on conference-8; solo-* unchanged"},
        {"core.graph_nodes", "count", "lower", "peak_rss_mb on conference-8"},
        {"net.packets", "count", "lower", "explains rendered_frac and jain"},
        {"net.retransmissions", "count", "lower", "explains rendered_frac and jain"},
        {"net.queue_drops", "count", "lower", "explains rendered_frac and jain"},
        {"net.unrecovered", "count", "lower", "explains rendered_frac and jain"},
        {"net.fanout_mb", "MB", "lower", "explains rendered_frac and jain on conference-8"},
        {"mesh.quality_ms", "ms", "lower", "off the timed path; no end-to-end effect"},
        {"trace.fps_ratio", "ratio", "higher", "traced fps / untraced fps (overhead)"},
        {"trace.replay_gap", "fraction", "lower",
         "|replay / decode - 1| per keypoint frame, median"},
    };
    return defs;
}

// ---- Settings fixed by the benchmark ---------------------------------------

constexpr std::size_t kSetupRepeats = 9;
// CPUs the run is held on (see the top of this file).
constexpr std::size_t kCpus = 2;
// Minimum timed repeats per phase, so the digest can be compared.
constexpr std::size_t kMinRepeats = 2;
// Frames timed end to end before the untraced phase may stop: the
// faster half of the repeats keeps at least 200, which leave ten samples
// above the p95.
constexpr std::size_t kMinFrameSamples = 400;
constexpr std::size_t kQualityStride = 5;
constexpr std::size_t kQualitySamples = 6000;
// Mean Chamfer distance above which the keypoint meshes are wrong, not
// merely coarse: the capsule-body reconstruction sits at 9-15 mm against
// the LBS ground truth (no garment detail), at 32^3 and at 128^3.
constexpr double kChamferBoundMm = 25.0;
// The replayed layer calls and the channel's decode span are flagged
// when their median per-frame ratio is further than this from 1.
constexpr double kReplayTolerance = 0.5;

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    std::string outDir{"."};
    std::string gitSha{"unknown"};
    std::string sourceDigest{"unknown"};
};

bool parseArgs(int argc, char** argv, Args& args) {
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                args.workload = value;
                haveWorkload = true;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") return false;
                args.trace = value == "1";
            } else if (key == "--out") {
                args.outDir = value;
            } else if (key == "--git-sha") {
                args.gitSha = value;
            } else if (key == "--source-digest") {
                args.sourceDigest = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return haveWorkload && args.seconds > 0.0;
}

// ---- Correctness checks ------------------------------------------------------

class Checks {
public:
    bool expect(bool ok, const std::string& what) {
        if (!ok && failures_.size() < 32) failures_.push_back(what);
        if (!ok) ++failed_;
        return ok;
    }
    bool ok() const { return failed_ == 0; }
    const std::vector<std::string>& failures() const { return failures_; }

private:
    std::vector<std::string> failures_;
    std::size_t failed_{0};
};

std::string digestOf(const EngineRun& run) {
    Fnv1a h;
    for (std::size_t u = 0; u < run.stats.perUser.size(); ++u) {
        for (const core::FrameStats& f : run.stats.perUser[u].frames) {
            h.add(u);
            h.add(f.frameId);
            h.add(f.bytes);
            h.add(f.delivered ? 1 : 0);
            h.add(f.decoded ? 1 : 0);
        }
    }
    return h.hex();
}

std::vector<double> deliveryRatios(const EngineRun& run) {
    std::vector<double> ratios;
    for (const core::SessionStats& s : run.stats.perUser)
        ratios.push_back(s.frames.empty() ? 0.0
                                          : static_cast<double>(s.deliveredFrames) /
                                                static_cast<double>(s.frames.size()));
    return ratios;
}

// Per-run contracts: packet and fan-out conservation, the decorators saw
// every channel call the engine accounted for, and every decoded
// keypoint frame carries a mesh. Returns false when any check failed.
bool checkRun(const EngineRun& run, RunRecorder& rec, const Workload& w, Checks& checks) {
    bool ok = true;
    const core::MultiSessionStats& s = run.stats;
    const auto& c = s.telemetry.counters;
    ok &= checks.expect(c.packets == c.packetsDelivered + c.packetsUnrecovered,
                        "uplink packets != delivered + unrecovered");
    for (std::size_t u = 0; u < s.perUser.size(); ++u) {
        const auto& uc = s.perUser[u].telemetry.counters;
        const std::string who = "user " + std::to_string(u);
        ok &= checks.expect(uc.packets == uc.packetsDelivered + uc.packetsUnrecovered,
                            who + ": uplink packets != delivered + unrecovered");
        ok &= checks.expect(s.perUser[u].frames.size() == run.frames,
                            who + ": frame count");
        std::size_t encodes = 0, decodes = 0, keypointDecoded = 0;
        for (const core::FrameStats& f : s.perUser[u].frames) {
            if (f.droppedAtSender) continue;
            ++encodes;
            if (f.delivered && !f.droppedAtReceiver) {
                ++decodes;
                keypointDecoded += f.decoded ? 1 : 0;
            }
        }
        UserLog& log = rec.user(u);
        ok &= checks.expect(log.encodeMs.size() == encodes,
                            who + ": encode calls seen != frames encoded");
        ok &= checks.expect(log.decodeMs.size() == decodes,
                            who + ": decode calls seen != frames decoded");
        if (log.kind == "keypoint") {
            ok &= checks.expect(log.emptyKeypointMeshes == 0,
                                who + ": decoded keypoint frame with an empty mesh");
            ok &= checks.expect(keypointDecoded == decodes,
                                who + ": keypoint decode reported invalid");
        }
    }
    if (w.conference) {
        ok &= checks.expect(s.downlinks.size() == w.users(), "one downlink per viewer");
        std::uint64_t frames = 0, bytes = 0;
        for (const core::DownlinkStats& d : s.downlinks) {
            const std::string who = "downlink " + std::to_string(d.viewer);
            ok &= checks.expect(d.packets == d.packetsDelivered + d.packetsUnrecovered,
                                who + ": packets != delivered + unrecovered");
            std::uint64_t streamFrames = 0, streamBytes = 0;
            for (const core::DownlinkStreamStats& st : d.streams) {
                ok &= checks.expect(
                    st.packets == st.packetsDelivered + st.packetsUnrecovered,
                    who + ": stream packets != delivered + unrecovered");
                streamFrames += st.framesForwarded;
                streamBytes += st.bytesForwarded;
            }
            ok &= checks.expect(streamFrames == d.framesForwarded &&
                                    streamBytes == d.bytesForwarded,
                                who + ": streams do not sum to the viewer totals");
            frames += d.framesForwarded;
            bytes += d.bytesForwarded;
        }
        ok &= checks.expect(frames == s.serverFanoutFrames,
                            "per-viewer fan-out frames != serverFanoutFrames");
        ok &= checks.expect(bytes == s.serverFanoutBytes,
                            "per-viewer fan-out bytes != serverFanoutBytes");
        ok &= checks.expect(std::abs(jainIndex(deliveryRatios(run)) - s.fairnessIndex) < 1e-9,
                            "Jain index disagrees with the engine's fairnessIndex");
    }
    return ok;
}

// ---- Phases ------------------------------------------------------------------

double renderedFrames(const EngineRun& r) {
    std::size_t n = 0;
    for (const core::SessionStats& s : r.stats.perUser) n += s.decodedFrames;
    return static_cast<double>(n);
}

double engineSeconds(const EngineRun& r) { return (r.span.end - r.span.start) / 1000.0; }

struct Phase {
    std::vector<std::unique_ptr<RunRecorder>> recorders;
    std::vector<EngineRun> runs;
    std::vector<bool> passed;

    // Rendered frames per engine second of each repeat.
    std::vector<double> repeatFps() const {
        std::vector<double> fps;
        for (const EngineRun& r : runs) {
            const double seconds = engineSeconds(r);
            fps.push_back(seconds > 0.0 ? renderedFrames(r) / seconds : 0.0);
        }
        return fps;
    }
    // The repeats whose fps is at or above the median. Every repeat
    // replays the same frames, so the slower half absorbs host stalls that
    // last seconds (CPU steal on a shared machine) without dropping any
    // frame of the workload; a cost the program adds to every repeat
    // still shows.
    std::vector<std::size_t> fasterHalf() const {
        const std::vector<double> fps = repeatFps();
        const double cut = median(fps);
        std::vector<std::size_t> kept;
        for (std::size_t i = 0; i < fps.size(); ++i)
            if (fps[i] >= cut) kept.push_back(i);
        return kept;
    }
    // Rendered frames per engine second over the faster half.
    double fps() const {
        double frames = 0.0, seconds = 0.0;
        for (std::size_t i : fasterHalf()) {
            frames += renderedFrames(runs[i]);
            seconds += engineSeconds(runs[i]);
        }
        return seconds > 0.0 ? frames / seconds : 0.0;
    }
};

std::size_t frameSamples(const RunRecorder& rec) {
    std::size_t n = 0;
    for (std::size_t u = 0; u < rec.users(); ++u)
        for (const FrameTimes& t : rec.user(u).frames)
            n += !std::isnan(t.encodeStart) && !std::isnan(t.decodeEnd) ? 1 : 0;
    return n;
}

// Repeat the workload's engine run until 'seconds' of wall time passed,
// at least 'minRepeats' times, and until 'minFrameSamples' frames were
// timed end to end.
Phase runPhase(const Workload& w, const body::BodyModel& model, double seconds,
               const RecorderOptions& options, std::size_t minRepeats,
               std::size_t minFrameSamples, Clock::time_point origin, Checks& checks) {
    Phase phase;
    std::size_t samples = 0;
    const Clock::time_point start = Clock::now();
    while (phase.runs.size() < minRepeats || samples < minFrameSamples ||
           std::chrono::duration<double>(Clock::now() - start).count() < seconds) {
        phase.recorders.push_back(
            std::make_unique<RunRecorder>(w.users(), w.frames(), options, origin));
        RunRecorder& rec = *phase.recorders.back();
        phase.runs.push_back(runEngine(w, model, w.frames(), rec));
        const EngineRun& run = phase.runs.back();
        if (options.trace != nullptr)
            options.trace->add(w.conference ? "runConference" : "runSession", "core", 0, 0,
                               run.span.start, run.span.end, 0);
        phase.passed.push_back(checkRun(run, rec, w, checks));
        samples += frameSamples(rec);
    }
    return phase;
}

struct Setup {
    std::unique_ptr<body::BodyModel> model;
    std::vector<double> seconds;
};

// Body model, channels and one warm-up frame (which also starts the
// library's shared worker pool on the first pass), repeated; the last
// model is the one the timed phases use.
Setup runSetup(const Workload& w, Clock::time_point origin) {
    Setup setup;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        auto model = std::make_unique<body::BodyModel>(body::ShapeParams{});
        RunRecorder rec(w.users(), 1, {}, origin);
        runEngine(w, *model, 1, rec);
        setup.seconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
        setup.model = std::move(model);
    }
    return setup;
}

// ---- Metric helpers ------------------------------------------------------------

struct Value {
    double value{0.0};
    std::size_t samples{0};
};
using Metrics = std::map<std::string, Value>;

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Frame latencies (encode call to decode return) over the faster half of
// the repeats, the ones fps is taken over.
std::vector<double> frameLatencies(const Phase& phase) {
    std::vector<double> ms;
    for (std::size_t i : phase.fasterHalf()) {
        const RunRecorder& rec = *phase.recorders[i];
        for (std::size_t u = 0; u < rec.users(); ++u)
            for (const FrameTimes& t : rec.user(u).frames)
                if (!std::isnan(t.encodeStart) && !std::isnan(t.decodeEnd))
                    ms.push_back(t.decodeEnd - t.encodeStart);
    }
    return ms;
}

// Aggregate uplink wire rate of one run, in Mbps at the session's fps.
double uplinkMbps(const EngineRun& run, double fps) {
    double bytes = 0.0;
    for (const core::SessionStats& s : run.stats.perUser)
        for (const core::FrameStats& f : s.frames)
            if (!f.droppedAtSender) bytes += static_cast<double>(f.bytes);
    const double seconds = static_cast<double>(run.frames) / fps;
    return bytes * 8.0 / seconds / 1e6;
}

double renderedFraction(const EngineRun& run) {
    std::size_t captured = 0, rendered = 0;
    for (const core::SessionStats& s : run.stats.perUser) {
        captured += s.frames.size();
        rendered += s.decodedFrames;
    }
    return captured > 0 ? static_cast<double>(rendered) / static_cast<double>(captured) : 0.0;
}

struct Quality {
    std::vector<double> chamferMm;
    std::vector<double> compareMs;
};

// One more repeat, after the timed phases and after peak RSS was read,
// that keeps every kQualityStride-th keypoint mesh; the meshes are scored
// against the LBS ground truth once it finished.
Quality runQuality(const Workload& w, const body::BodyModel& model, Clock::time_point origin,
                   SpanLog* spans, const std::string& digest, Checks& checks) {
    RecorderOptions options;
    options.qualityStride = kQualityStride;
    Phase phase = runPhase(w, model, 0.0, options, 1, 0, origin, checks);
    checks.expect(digestOf(phase.runs.front()) == digest,
                  "quality repeat digest differs from the timed repeats");
    const RunRecorder& rec = *phase.recorders.front();
    Quality q;
    for (std::size_t u = 0; u < rec.users(); ++u) {
        for (const UserLog::QualitySample& s : rec.user(u).quality) {
            const mesh::TriMesh truth = model.deform(s.pose);
            const double t0 = rec.nowMs();
            const auto err = semholo::mesh::compareMeshes(truth, s.mesh, kQualitySamples);
            const double t1 = rec.nowMs();
            q.chamferMm.push_back(err.chamfer * 1000.0);
            q.compareMs.push_back(t1 - t0);
            if (spans != nullptr)
                spans->add("compareMeshes", "mesh", static_cast<std::uint32_t>(u), s.frame,
                           t0, t1, 0);
        }
    }
    return q;
}

void addEndToEnd(Metrics& m, const Workload& w, const Phase& timed, const Quality& quality,
                 const Setup& setup, double peakRss) {
    const EngineRun& first = timed.runs.front();
    m["fps"] = {timed.fps(), timed.runs.size()};
    const std::vector<double> latencies = frameLatencies(timed);
    const Summary lat = summarize(latencies);
    m["frame_ms_p50"] = {lat.p50, lat.count};
    m["frame_ms_p95"] = {lat.p95, lat.count};
    m["uplink_mbps"] = {uplinkMbps(first, w.config.session.fps), 1};
    m["chamfer_mm"] = {mean(quality.chamferMm), quality.chamferMm.size()};
    m["rendered_frac"] = {renderedFraction(first), w.users() * first.frames};
    m["jain"] = {jainIndex(deliveryRatios(first)), w.users()};
    m["peak_rss_mb"] = {peakRss, 1};
    m["setup_s"] = {median(setup.seconds), setup.seconds.size()};
}

void addPerLayer(Metrics& m, const Phase& untraced, const Phase& traced,
                 const Quality& quality) {
    // Replayed keypoint layers (traced phase).
    std::vector<double> total, field, extract, ik, poseDecode, poseEncode, ratio, gap;
    double nodesEval = 0, nodesTotal = 0, blocksSkipped = 0, blocksTotal = 0, cached = 0,
           reused = 0, certTests = 0, activeCells = 0, triangles = 0;
    for (const auto& rec : traced.recorders) {
        for (std::size_t u = 0; u < rec->users(); ++u) {
            const UserLog& log = rec->user(u);
            for (const Replay& r : log.replays) {
                total.push_back(r.reconTotalMs);
                field.push_back(r.reconFieldMs);
                extract.push_back(r.reconExtractMs);
                ik.push_back(r.ikMs);
                poseDecode.push_back(r.poseDecodeMs);
                if (r.channelDecodeMs > 0.0)
                    gap.push_back(std::abs(r.replayMs() / r.channelDecodeMs - 1.0));
                nodesEval += static_cast<double>(r.stats.nodesEvaluated);
                nodesTotal += static_cast<double>(r.stats.nodesTotal);
                blocksSkipped += static_cast<double>(r.stats.blocksSkipped);
                blocksTotal += static_cast<double>(r.stats.blocksTotal);
                cached += static_cast<double>(r.channelBlocksCached);
                reused += static_cast<double>(r.channelReusedTopologyBlocks);
                certTests += static_cast<double>(r.stats.certTests);
                activeCells += static_cast<double>(r.stats.activeCells);
                triangles += static_cast<double>(r.triangles);
            }
            for (const PoseEncodeReplay& e : log.poseEncodes) {
                poseEncode.push_back(e.encodeMs);
                ratio.push_back(e.ratio);
            }
        }
    }
    const std::size_t n = total.size();
    const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto perFrame = [n](double sum) { return n > 0 ? sum / static_cast<double>(n) : 0.0; };
    m["recon.total_ms"] = {median(total), n};
    m["recon.field_ms"] = {median(field), n};
    m["recon.extract_ms"] = {median(extract), n};
    m["body.ik_ms"] = {median(ik), n};
    m["recon.node_eval_frac"] = {frac(nodesEval, nodesTotal), n};
    m["recon.blocks_skipped_frac"] = {frac(blocksSkipped, blocksTotal), n};
    m["recon.cert_tests"] = {perFrame(certTests), n};
    m["mesh.active_cells"] = {perFrame(activeCells), n};
    m["mesh.triangles"] = {perFrame(triangles), n};
    m["recon.blocks_cached_frac"] = {frac(cached, blocksTotal), n};
    m["recon.reused_topology_frac"] = {frac(reused, blocksTotal), n};
    m["compress.pose_encode_ms"] = {median(poseEncode), poseEncode.size()};
    m["compress.pose_decode_ms"] = {median(poseDecode), n};
    m["compress.pose_ratio"] = {mean(ratio), ratio.size()};
    m["trace.replay_gap"] = {median(gap), gap.size()};

    // Channel spans and engine self time (untraced phase).
    for (const char* kind : {"keypoint", "adaptive-mesh", "foveated", "text"}) {
        std::vector<double> enc, dec;
        for (const auto& rec : untraced.recorders)
            for (std::size_t u = 0; u < rec->users(); ++u) {
                const UserLog& log = rec->user(u);
                if (log.kind != kind) continue;
                enc.insert(enc.end(), log.encodeMs.begin(), log.encodeMs.end());
                dec.insert(dec.end(), log.decodeMs.begin(), log.decodeMs.end());
            }
        m[std::string("core.encode_ms.") + kind] = {median(enc), enc.size()};
        m[std::string("core.decode_ms.") + kind] = {median(dec), dec.size()};
    }
    std::vector<double> self, handoff;
    for (std::size_t i = 0; i < untraced.runs.size(); ++i) {
        const RunRecorder& rec = *untraced.recorders[i];
        std::vector<Interval> calls;
        for (std::size_t u = 0; u < rec.users(); ++u) {
            const UserLog& log = rec.user(u);
            calls.insert(calls.end(), log.calls.begin(), log.calls.end());
            for (const FrameTimes& t : log.frames)
                if (!std::isnan(t.encodeEnd) && !std::isnan(t.decodeStart))
                    handoff.push_back(t.decodeStart - t.encodeEnd);
        }
        const EngineRun& run = untraced.runs[i];
        self.push_back(selfTime(run.span, calls) / static_cast<double>(run.frames));
    }
    m["core.engine_self_ms"] = {median(self), self.size()};
    m["core.handoff_ms"] = {median(handoff), handoff.size()};

    const EngineRun& last = untraced.runs.back();
    const auto& c = last.stats.telemetry.counters;
    m["core.graph_nodes"] = {static_cast<double>(last.stats.pipeline.nodes), 1};
    m["net.packets"] = {static_cast<double>(c.packets), 1};
    m["net.retransmissions"] = {static_cast<double>(c.retransmissions), 1};
    m["net.queue_drops"] = {static_cast<double>(c.queueDrops), 1};
    m["net.unrecovered"] = {static_cast<double>(c.packetsUnrecovered), 1};
    m["net.fanout_mb"] = {static_cast<double>(last.stats.serverFanoutBytes) / 1e6, 1};
    m["mesh.quality_ms"] = {median(quality.compareMs), quality.compareMs.size()};
    const double untracedFps = untraced.fps();
    m["trace.fps_ratio"] = {untracedFps > 0.0 ? traced.fps() / untracedFps : 0.0,
                            traced.runs.size()};
}

// ---- Output --------------------------------------------------------------------

std::string cpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string v = line.substr(colon + 1);
                v.erase(0, v.find_first_not_of(' '));
                return v;
            }
        }
    }
    return "unknown";
}

// Restricts the process, and every thread it starts from now on, to
// kCpus of the CPUs it may use, starting at the one it is running on.
// Returns the CPUs chosen, or none when the affinity could not be set.
std::vector<int> pinCpus() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
    if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
    cpus.resize(std::min(cpus.size(), kCpus));
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    for (int c : cpus) CPU_SET(c, &chosen);
    if (sched_setaffinity(0, sizeof chosen, &chosen) != 0) return {};
    return cpus;
}

std::string manifestJson(const Args& args, const Workload& w, const std::vector<int>& cpus) {
    std::string pinned = "[";
    for (std::size_t i = 0; i < cpus.size(); ++i)
        pinned += (i ? "," : "") + std::to_string(cpus[i]);
    pinned += "]";
    JsonWriter json;
    json.beginObject()
        .field("workload", w.name)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", static_cast<std::uint64_t>(args.trace ? 1 : 0))
        .field("git_sha", args.gitSha)
        .field("source_digest", args.sourceDigest)
        .field("compiler", std::string(PERFBENCH_COMPILER))
        .field("flags", std::string(PERFBENCH_FLAGS))
        .field("build_type", std::string(PERFBENCH_BUILD_TYPE))
        .field("cpu_model", cpuModel())
        .field("simd_backend", std::string(body::bodyBatchBackend()))
        .field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .raw("pinned_cpus", pinned)
        .field("engine_workers", static_cast<std::uint64_t>(w.config.session.workers))
        .field("shared_pool_workers",
               static_cast<std::uint64_t>(semholo::core::sharedPool().size()))
        .endObject();
    return json.str();
}

std::string metricsDocJson(const Metrics& m, const std::vector<MetricDef>& defs) {
    JsonWriter json;
    json.beginObject();
    for (const MetricDef& d : defs) {
        const Value& v = m.at(d.name);
        json.beginObject(d.name)
            .raw("value", jsonNumber(v.value))
            .field("unit", std::string(d.unit))
            .field("samples", static_cast<std::uint64_t>(v.samples))
            .field("better", std::string(d.better))
            .field("moves", std::string(d.moves))
            .endObject();
    }
    json.endObject();
    return json.str();
}

std::string jsonArray(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + jsonNumber(values[i]);
    return out + "]";
}

int run(const Args& args) {
    // Before the first thread starts: threads inherit the affinity.
    const std::vector<int> cpus = pinCpus();
    const Workload w = makeWorkload(args.workload, args.seed);
    const Clock::time_point origin = Clock::now();
    Checks checks;

    const Setup setup = runSetup(w, origin);
    const body::BodyModel& model = *setup.model;

    std::unique_ptr<SpanLog> spans;
    Phase untraced = runPhase(w, model, args.trace ? args.seconds / 2 : args.seconds, {},
                              kMinRepeats, args.trace ? 0 : kMinFrameSamples, origin, checks);
    Phase traced;
    if (args.trace) {
        spans = std::make_unique<SpanLog>();
        RecorderOptions options;
        options.trace = spans.get();
        traced = runPhase(w, model, args.seconds / 2, options, kMinRepeats, 0, origin, checks);
    }

    // Every repeat of one seed must produce the same per-frame sequence.
    const std::string digest = digestOf(untraced.runs.front());
    for (const Phase* phase : {&untraced, &traced})
        for (const EngineRun& r : phase->runs)
            checks.expect(digestOf(r) == digest, "repeat digest differs within one seed");

    // Read before the quality repeat, whose kept meshes are the
    // benchmark's memory, not the program's.
    const double peakRss = peakRssMb();
    const Quality quality = runQuality(w, model, origin, spans.get(), digest, checks);
    bool hasKeypoint = false;
    for (const auto& spec : w.specs) hasKeypoint |= spec.kind == "keypoint";
    if (hasKeypoint) {
        checks.expect(!quality.chamferMm.empty(), "no keypoint frame sampled for quality");
        checks.expect(mean(quality.chamferMm) < kChamferBoundMm,
                      "chamfer_mm above the fixed bound");
    }

    Metrics m;
    const std::vector<MetricDef>& defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    if (args.trace) {
        addPerLayer(m, untraced, traced, quality);
    } else {
        addEndToEnd(m, w, untraced, quality, setup, peakRss);
    }
    const bool replayFlag =
        args.trace && hasKeypoint && m.at("trace.replay_gap").value > kReplayTolerance;

    // attempted: (user, frame) captures across the timed repeats; failed:
    // those in a repeat whose per-run checks failed.
    std::size_t attempted = 0, failed = 0;
    for (const Phase* phase : {&untraced, &traced})
        for (std::size_t i = 0; i < phase->runs.size(); ++i) {
            const std::size_t n = w.users() * phase->runs[i].frames;
            attempted += n;
            if (!phase->passed[i]) failed += n;
        }

    const std::string manifest = manifestJson(args, w, cpus);
    std::printf("perfbench %s seed=%llu trace=%d repeats=%zu digest=%s\n", w.name.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                untraced.runs.size() + traced.runs.size(), digest.c_str());
    std::printf("manifest %s\n", manifest.c_str());
    for (const MetricDef& d : defs) {
        const Value& v = m.at(d.name);
        std::printf("  %-30s %14.6f %-8s n=%zu\n", d.name, v.value, d.unit, v.samples);
    }
    if (!args.trace) {
        std::printf("  %-30s %14.6f %-8s n=%zu\n", "failed_frac",
                    1.0 - m.at("rendered_frac").value, "fraction",
                    m.at("rendered_frac").samples);
    }
    if (replayFlag)
        std::printf("FLAG replay/decode disagree by %.3f (tolerance %.2f): the keypoint "
                    "decode no longer matches the replayed layer calls\n",
                    m.at("trace.replay_gap").value, kReplayTolerance);
    for (const std::string& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());

    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    const std::string stem = args.outDir + "/" + w.name + "-seed" + std::to_string(args.seed);
    JsonWriter doc;
    doc.beginObject()
        .raw("manifest", manifest)
        .field("digest", digest)
        .raw("repeat_fps", jsonArray(untraced.repeatFps()))
        .raw("correct", checks.ok() ? "true" : "false")
        .raw("replay_flag", replayFlag ? "true" : "false")
        .raw("metrics", metricsDocJson(m, defs))
        .endObject();
    std::ofstream(stem + (args.trace ? "-trace1.json" : "-trace0.json")) << doc.str() << '\n';
    if (spans && !writeChromeTrace(stem + ".trace.json", spans->spans(), manifest))
        std::printf("warning: could not write %s.trace.json\n", stem.c_str());

    JsonWriter last;
    last.beginObject()
        .raw("correct", checks.ok() ? "true" : "false")
        .field("attempted", static_cast<std::uint64_t>(attempted))
        .field("failed", static_cast<std::uint64_t>(failed))
        .beginObject("metrics");
    for (const MetricDef& d : defs)
        last.beginObject(d.name)
            .raw("value", jsonNumber(m.at(d.name).value))
            .field("unit", std::string(d.unit))
            .endObject();
    last.endObject().endObject();
    std::printf("%s\n", last.str().c_str());
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--out <dir>] [--git-sha <sha>] "
                     "[--source-digest <hex>]\n");
        return 2;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
