#include "semholo/core/session.hpp"

#include <algorithm>
#include <cmath>

#include "semholo/core/thread_pool.hpp"
#include "session_internal.hpp"

namespace semholo::core {

namespace internal {

std::size_t effectiveWorkers(const SessionConfig& config) {
    return config.workers == 0 ? ThreadPool::defaultWorkers() : config.workers;
}

void observeLink(net::LinkSimulator& link, std::vector<SessionStats>& perUser) {
    link.setObserver([&perUser](const net::TransferResult& r,
                                std::size_t queuedBytes) {
        telemetry::SessionTelemetry& t =
            perUser[static_cast<std::size_t>(r.senderTag)].telemetry;
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

}  // namespace internal

std::size_t MultiSessionStats::usersWithinLatency(double budgetMs) const {
    std::size_t n = 0;
    for (const SessionStats& s : perUser)
        if (s.deliveredFrames > 0 && s.meanE2eMs <= budgetMs) ++n;
    return n;
}

SessionStats runSession(SemanticChannel& channel, const body::BodyModel& model,
                        const SessionConfig& config) {
    // A one-participant conference: the caller's channel on its own
    // uplink (config.link), no downlink fan-out, no arbiter.
    ConferenceConfig conf;
    conf.session = config;
    conf.participants.resize(1);
    conf.sharedUplink = false;
    conf.enableDownlinks = false;
    conf.arbiter.strategy = ArbiterStrategy::None;
    return std::move(
        internal::runConferenceWithChannels(conf, {&channel}, model).perUser[0]);
}

}  // namespace semholo::core
