// Internals of the session engine (the conference stage graph that also
// runs single-user sessions): pipeline clock helpers, stat aggregation,
// and the link telemetry observer. Not installed.
#pragma once

#include "semholo/core/conference.hpp"
#include "semholo/core/session.hpp"

namespace semholo::core {
class ThreadPool;
}

namespace semholo::core::internal {

// Stage cost that advances the availability clocks (extractor/recon
// busy-until, link send times) under the configured timing model.
inline double clockExtractMs(const EncodedFrame& encoded, TimingModel timing) {
    return timing == TimingModel::Measured ? encoded.extractMs()
                                           : encoded.simulatedExtractMs;
}

inline double clockReconMs(const DecodedFrame& decoded, TimingModel timing) {
    return timing == TimingModel::Measured ? decoded.reconMs()
                                           : decoded.simulatedReconMs;
}

// config.workers with 0 resolved to hardware concurrency.
std::size_t effectiveWorkers(const SessionConfig& config);

// Copy a decoded frame's reconstruction work accounting into the frame
// stats.
inline void copyReconCounters(FrameStats& frame, const DecodedFrame& decoded) {
    frame.reconBlocksSkipped = decoded.reconBlocksSkipped;
    frame.reconBlocksCached = decoded.reconBlocksCached;
    frame.reconBonesBlended = decoded.reconBonesBlended;
    frame.reconBonesPruned = decoded.reconBonesPruned;
    frame.reconBonesCulled = decoded.reconBonesCulled;
    frame.reconNodesEvaluated = decoded.reconNodesEvaluated;
    frame.reconCertTests = decoded.reconCertTests;
    frame.reconActiveCells = decoded.reconActiveCells;
    frame.reconReusedTopologyBlocks = decoded.reconReusedTopologyBlocks;
    frame.reconFieldMs = decoded.reconFieldMs;
    frame.reconExtractMs = decoded.reconExtractMs;
}

// Compute every frame-derived aggregate of 'stats' (means, percentiles,
// drop counts, achievable FPS, Chamfer mean) and fill the per-stage
// telemetry histograms/counters from stats.frames. Link-level counters
// (packets, retransmissions, queue depth) are recorded separately by the
// observer attached via observeLink.
void finalizeSessionStats(SessionStats& stats, const SessionConfig& config);

// Per-user finalize + aggregate rollup (bandwidth, mean e2e, merged
// telemetry). out.telemetry may already hold the shared link's counters.
void finalizeMultiSessionStats(MultiSessionStats& out, const SessionConfig& config);

// Record packet/loss/retransmission/queue-drop counters and queue-depth
// samples of every message 'link' carries into the telemetry of its
// sender, perUser[senderTag]. The link is a sequenced single-thread
// stage; 'perUser' must outlive the link's use and keep its size.
void observeLink(net::LinkSimulator& link, std::vector<SessionStats>& perUser);

// The one conference implementation (multiuser_session.cpp): an
// event-driven stage graph — per (tick, user) nodes for arbiter targets,
// encode, sequenced uplink entry (a per-link ticket chain preserving the
// (frame, user) order), downlink fan-out, decode, sampled quality eval
// and tick retirement, with explicit dependency edges. pool == nullptr
// executes the graph in insertion order (the legacy per-tick phase
// schedule); otherwise nodes run the moment their dependencies complete,
// pipelining up to ConferenceConfig::pipelineDepth ticks. Both executors touch every
// mutable resource in the same per-resource order, so runs are
// byte-identical under TimingModel::Simulated at any worker count.
// 'channels' are externally owned, one per conf.participants entry
// (built by runConference from the descriptors, or the caller's channel
// of a runSession).
MultiSessionStats runConferenceTicked(
    const ConferenceConfig& conf, const std::vector<SemanticChannel*>& channels,
    const body::BodyModel& model, ThreadPool* pool);

// Dispatch wrapper: resolves conf.session.workers and runs
// runConferenceTicked inline or over a ThreadPool (conference.cpp).
MultiSessionStats runConferenceWithChannels(
    const ConferenceConfig& conf, const std::vector<SemanticChannel*>& channels,
    const body::BodyModel& model);

}  // namespace semholo::core::internal
