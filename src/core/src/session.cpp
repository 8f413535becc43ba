#include "semholo/core/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/net/abr.hpp"
#include "session_internal.hpp"

namespace semholo::core {

namespace internal {

std::size_t effectiveWorkers(const SessionConfig& config) {
    return config.workers == 0 ? ThreadPool::defaultWorkers() : config.workers;
}

void observeLink(net::LinkSimulator& link, telemetry::SessionTelemetry& t) {
    link.setObserver([&t](const net::TransferResult& r, std::size_t queuedBytes) {
        t.counters.packets += r.packets;
        t.counters.packetsLost += r.lostPackets;
        t.counters.packetsDelivered += r.deliveredPackets;
        t.counters.packetsUnrecovered += r.unrecoveredPackets;
        t.counters.retransmissions += r.retransmissions;
        t.counters.queueDrops += r.droppedAtQueue;
        t.counters.bytesSent += r.bytes;
        t.counters.faultEvents += r.faultEvents;
        t.queueDepthBytes.record(static_cast<double>(queuedBytes));
    });
}

void finalizeSessionStats(SessionStats& stats, const SessionConfig& config) {
    // Aggregate over processed (non-dropped) frames; byte/time means are
    // over frames that actually ran the stage in question.
    double sumBytes = 0.0, sumExtract = 0.0, sumTransfer = 0.0, sumRecon = 0.0,
           sumE2e = 0.0, sumStage = 0.0, sumChamfer = 0.0;
    std::size_t sent = 0, reconCount = 0, evaluated = 0;
    std::vector<double> e2es;
    telemetry::SessionTelemetry& t = stats.telemetry;
    t.counters.framesCaptured += stats.frames.size();
    for (const FrameStats& frame : stats.frames) {
        if (frame.droppedAtSender) {
            ++stats.droppedSenderFrames;
            ++t.counters.dropsAtSender;
            continue;
        }
        sumBytes += static_cast<double>(frame.bytes);
        sumExtract += frame.extractMs;
        sumTransfer += frame.transferMs;
        t.encodeMs.record(frame.extractMs);
        t.transferMs.record(frame.transferMs);
        t.bytesPerFrame.record(static_cast<double>(frame.bytes));
        ++sent;
        if (frame.droppedAtReceiver) {
            ++stats.droppedReceiverFrames;
            ++t.counters.dropsAtReceiver;
            continue;
        }
        if (frame.delivered) {
            ++stats.deliveredFrames;
            ++t.counters.framesDelivered;
            sumE2e += frame.e2eMs;
            e2es.push_back(frame.e2eMs);
            t.e2eMs.record(frame.e2eMs);
        }
        if (frame.decoded) {
            ++stats.decodedFrames;
            ++t.counters.framesDecoded;
            sumRecon += frame.reconMs;
            t.decodeMs.record(frame.reconMs);
            t.counters.reconBlocksSkipped += frame.reconBlocksSkipped;
            t.counters.reconBlocksCached += frame.reconBlocksCached;
            t.counters.reconBonesBlended += frame.reconBonesBlended;
            t.counters.reconBonesPruned += frame.reconBonesPruned;
            t.counters.reconBonesCulled += frame.reconBonesCulled;
            t.counters.reconNodesEvaluated += frame.reconNodesEvaluated;
            t.counters.reconCertTests += frame.reconCertTests;
            t.counters.reconActiveCells += frame.reconActiveCells;
            t.counters.reconReusedTopologyBlocks += frame.reconReusedTopologyBlocks;
            if (frame.reconFieldMs > 0.0 || frame.reconExtractMs > 0.0) {
                t.reconFieldMs.record(frame.reconFieldMs);
                t.reconExtractMs.record(frame.reconExtractMs);
            }
            ++reconCount;
        }
        sumStage += std::max(frame.extractMs, frame.reconMs);
        if (!std::isnan(frame.chamfer)) {
            sumChamfer += frame.chamfer;
            t.qualityMs.record(frame.qualityMs);
            ++evaluated;
        }
    }
    if (sent > 0) {
        stats.meanBytesPerFrame = sumBytes / static_cast<double>(sent);
        stats.meanExtractMs = sumExtract / static_cast<double>(sent);
        stats.meanTransferMs = sumTransfer / static_cast<double>(sent);
        // Effective bandwidth: bytes actually sent over the session span.
        // Guard the degenerate zero-span session (frames == 0 or fps
        // <= 0) so the contract stays "0, never a division by zero".
        const double spanS = config.fps > 0.0
                                 ? static_cast<double>(config.frames) / config.fps
                                 : 0.0;
        stats.bandwidthMbps = spanS > 0.0 ? sumBytes * 8.0 / spanS / 1e6 : 0.0;
    }
    if (reconCount > 0) {
        stats.meanReconMs = sumRecon / static_cast<double>(reconCount);
        const double meanStage = sumStage / static_cast<double>(reconCount);
        stats.achievableFps = meanStage > 0.0 ? 1000.0 / meanStage : config.fps;
    }
    if (stats.deliveredFrames > 0) {
        stats.meanE2eMs = sumE2e / static_cast<double>(stats.deliveredFrames);
        std::sort(e2es.begin(), e2es.end());
        stats.p95E2eMs = e2es[static_cast<std::size_t>(
            0.95 * static_cast<double>(e2es.size() - 1))];
    }
    if (evaluated > 0) stats.meanChamfer = sumChamfer / static_cast<double>(evaluated);
}

void finalizeMultiSessionStats(MultiSessionStats& out, const SessionConfig& config) {
    double totalBytes = 0.0, totalE2e = 0.0;
    std::size_t e2eCount = 0;
    const double spanS = config.fps > 0.0
                             ? static_cast<double>(config.frames) / config.fps
                             : 0.0;
    for (SessionStats& s : out.perUser) {
        finalizeSessionStats(s, config);
        for (const FrameStats& frame : s.frames) {
            if (frame.droppedAtSender) continue;
            totalBytes += static_cast<double>(frame.bytes);
            if (!frame.droppedAtReceiver && frame.delivered) {
                totalE2e += frame.e2eMs;
                ++e2eCount;
            }
        }
        out.telemetry.merge(s.telemetry);
    }
    out.aggregateMbps = spanS > 0.0 ? totalBytes * 8.0 / spanS / 1e6 : 0.0;
    if (e2eCount > 0) out.meanE2eMs = totalE2e / static_cast<double>(e2eCount);
}

namespace {

double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

// Evaluate decoded-mesh quality against the LBS ground truth for one
// frame; shared by both engines (the parallel engine runs it inside
// pool tasks). Deterministic given the pose/mesh/samples.
void evaluateQuality(FrameStats& frame, const body::BodyModel& model,
                     const body::Pose& pose, const mesh::TriMesh& decodedMesh,
                     std::size_t samples) {
    const auto t0 = std::chrono::steady_clock::now();
    const mesh::TriMesh gt = model.deform(pose);
    frame.chamfer = mesh::compareMeshes(gt, decodedMesh, samples).chamfer;
    frame.qualityMs = msSince(t0);
}

SessionStats runSessionSerial(SemanticChannel& channel,
                              const body::BodyModel& model,
                              const SessionConfig& config) {
    SessionStats stats;
    channel.reset();
    net::LinkSimulator link(config.link);
    observeLink(link, stats.telemetry);
    const body::MotionGenerator motion(config.motion, model.shape(),
                                       config.motionSeed);

    // Sender extractor and receiver reconstructor are sequential pipeline
    // stages with their own availability clocks.
    double extractorFreeAt = 0.0;
    double reconFreeAt = 0.0;
    // Receiver throughput feedback loop for rate-adaptive channels, and
    // the closed-loop degradation policy that scales it under faults.
    net::HarmonicEstimator throughput(5);
    DegradationPolicy degrade(config.degradation, config.fps,
                              config.link.queueCapacityBytes);

    for (std::size_t f = 0; f < config.frames; ++f) {
        const double captureTime = static_cast<double>(f) / config.fps;
        FrameContext ctx;
        ctx.pose = motion.poseAt(captureTime);
        ctx.pose.frameId = static_cast<std::uint32_t>(f);
        ctx.model = &model;
        ctx.timestamp = captureTime;
        ctx.viewerHead = config.viewerHead;
        if (throughput.hasEstimate())
            ctx.estimatedBandwidthBps =
                throughput.estimate() * degrade.bandwidthScale();

        FrameStats frame;
        frame.frameId = ctx.pose.frameId;

        if (config.dropWhenBusy && extractorFreeAt > captureTime) {
            frame.droppedAtSender = true;
            stats.frames.push_back(std::move(frame));
            continue;
        }

        const EncodedFrame encoded = channel.encode(ctx);
        frame.bytes = encoded.bytes();
        frame.extractMs = encoded.extractMs();
        const double extractStart = std::max(captureTime, extractorFreeAt);
        const double sendTime =
            extractStart + internal::clockExtractMs(encoded, config.timing) / 1000.0;
        extractorFreeAt = sendTime;

        const std::size_t queuedAtSend =
            config.degradation.enabled ? link.queuedBytesAt(sendTime) : 0;
        const auto transfer =
            link.sendMessage(encoded.bytes(), sendTime, config.transfer);
        frame.delivered = transfer.delivered;
        frame.transferMs = transfer.durationS() * 1000.0;
        if (transfer.delivered && encoded.bytes() > 0) {
            // Serialization-dominated throughput sample (propagation
            // subtracted) so small payloads do not bias the estimate low.
            const double serialS = std::max(
                1e-5, transfer.durationS() - config.link.propagationDelayS);
            throughput.addSample(static_cast<double>(encoded.bytes()) * 8.0 /
                                 serialS);
        }
        if (config.degradation.enabled) {
            const DegradationAction action = degrade.observe(
                frame.frameId,
                {transfer.delivered, transfer.durationS(),
                 transfer.unrecoveredPackets, transfer.droppedAtQueue,
                 transfer.faultEvents, queuedAtSend});
            if (action == DegradationAction::StepDown)
                ++stats.telemetry.counters.degradations;
            else if (action == DegradationAction::StepUp)
                ++stats.telemetry.counters.upgrades;
        }

        if (transfer.delivered) {
            const double arrival = transfer.completionTime;
            if (config.dropWhenBusy && reconFreeAt > arrival) {
                frame.droppedAtReceiver = true;
                stats.frames.push_back(std::move(frame));
                continue;
            }
            DecodedFrame decoded = channel.decode(encoded);
            frame.decoded = decoded.valid;
            frame.reconMs = decoded.reconMs();
            internal::copyReconCounters(frame, decoded);
            const double reconStart = std::max(arrival, reconFreeAt);
            const double renderTime =
                reconStart + internal::clockReconMs(decoded, config.timing) / 1000.0;
            reconFreeAt = renderTime;
            frame.e2eMs = (renderTime - captureTime) * 1000.0;
            if (decoded.valid && config.qualityEvalInterval > 0 &&
                f % config.qualityEvalInterval == 0 && !decoded.mesh.empty()) {
                evaluateQuality(frame, model, ctx.pose, decoded.mesh,
                                config.qualitySamples);
            }
        } else {
            frame.e2eMs = (transfer.completionTime - captureTime) * 1000.0;
        }
        stats.frames.push_back(std::move(frame));
    }

    finalizeSessionStats(stats, config);
    return stats;
}

}  // namespace internal

std::size_t MultiSessionStats::usersWithinLatency(double budgetMs) const {
    std::size_t n = 0;
    for (const SessionStats& s : perUser)
        if (s.deliveredFrames > 0 && s.meanE2eMs <= budgetMs) ++n;
    return n;
}

SessionStats runSession(SemanticChannel& channel, const body::BodyModel& model,
                        const SessionConfig& config) {
    const std::size_t workers = internal::effectiveWorkers(config);
    if (workers <= 1) return internal::runSessionSerial(channel, model, config);
    return internal::runSessionParallel(channel, model, config, workers);
}

MultiSessionStats runMultiUserSession(
    const std::vector<SemanticChannel*>& channels, const body::BodyModel& model,
    const SessionConfig& base) {
    // Legacy shim: the conference engine with the pre-SFU topology —
    // shared uplink, no downlink fan-out, no arbiter — which is
    // byte-identical to the old multi-user scheduler.
    ConferenceConfig conf;
    conf.session = base;
    conf.participants.resize(channels.size());
    conf.sharedUplink = true;
    conf.enableDownlinks = false;
    return internal::runConferenceWithChannels(conf, channels, model);
}

}  // namespace semholo::core
