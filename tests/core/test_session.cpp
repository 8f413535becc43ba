#include "semholo/core/session.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>

#include "semholo/core/qoe.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 56};
    return model;
}

SessionConfig fastConfig(std::size_t frames = 20) {
    SessionConfig cfg;
    cfg.frames = frames;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
    cfg.link.jitterStddevS = 0.0;
    // Tests assert per-frame accounting; live drop behaviour has its own
    // dedicated test below.
    cfg.dropWhenBusy = false;
    return cfg;
}

TEST(Session, KeypointSessionDeliversAllFrames) {
    KeypointChannelOptions opt;
    opt.reconResolution = 24;
    auto channel = makeKeypointChannel(opt);
    const auto stats = runSession(*channel, sharedModel(), fastConfig());
    EXPECT_EQ(stats.frames.size(), 20u);
    EXPECT_EQ(stats.deliveredFrames, 20u);
    EXPECT_EQ(stats.decodedFrames, 20u);
    EXPECT_GT(stats.meanBytesPerFrame, 100.0);
    EXPECT_GT(stats.meanE2eMs, 0.0);
    EXPECT_GT(stats.achievableFps, 0.0);
}

TEST(Session, KeypointSessionCarriesReconLedger) {
    // The receiver's field-sampling / extraction split and the capsule
    // counters reach the frame stats and the session telemetry.
    KeypointChannelOptions opt;
    opt.reconResolution = 32;
    auto channel = makeKeypointChannel(opt);
    const auto stats = runSession(*channel, sharedModel(), fastConfig(6));
    ASSERT_EQ(stats.decodedFrames, 6u);
    std::uint64_t blended = 0, pruned = 0, culled = 0;
    for (const FrameStats& f : stats.frames) {
        EXPECT_GT(f.reconFieldMs, 0.0);
        EXPECT_GT(f.reconExtractMs, 0.0);
        EXPECT_GT(f.reconBonesBlended, 0u);
        EXPECT_LE(f.reconBonesCulled, f.reconBonesPruned);
        blended += f.reconBonesBlended;
        pruned += f.reconBonesPruned;
        culled += f.reconBonesCulled;
    }
    const auto& t = stats.telemetry;
    EXPECT_EQ(t.reconFieldMs.count(), 6u);
    EXPECT_EQ(t.reconExtractMs.count(), 6u);
    EXPECT_EQ(t.counters.reconBonesBlended, blended);
    EXPECT_EQ(t.counters.reconBonesPruned, pruned);
    EXPECT_EQ(t.counters.reconBonesCulled, culled);
    EXPECT_GT(culled, 0u);
    const std::string json = t.toJson();
    for (const char* key : {"\"recon_field_ms\"", "\"recon_extract_ms\"",
                            "\"recon_bones_blended\"", "\"recon_bones_culled\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(Session, KeypointBandwidthMatchesTable2) {
    // Table 2: compressed keypoint stream ~0.30 Mbps at 30 FPS.
    KeypointChannelOptions opt;
    opt.reconResolution = 16;
    auto channel = makeKeypointChannel(opt);
    const auto stats = runSession(*channel, sharedModel(), fastConfig(30));
    EXPECT_LT(stats.bandwidthMbps, 0.5);
    EXPECT_GT(stats.bandwidthMbps, 0.1);
}

TEST(Session, TraditionalBandwidthMatchesTable2) {
    // Raw mesh ~95 Mbps at 30 FPS (we accept the same order of magnitude).
    TraditionalOptions opt;
    opt.compress = false;
    auto channel = makeTraditionalChannel(opt);
    SessionConfig cfg = fastConfig(10);
    cfg.link.bandwidth = net::BandwidthTrace::constant(1e9);  // uncongested
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_GT(stats.bandwidthMbps, 40.0);
}

TEST(Session, QualityEvaluationSampled) {
    KeypointChannelOptions opt;
    opt.reconResolution = 32;
    auto channel = makeKeypointChannel(opt);
    SessionConfig cfg = fastConfig(10);
    cfg.qualityEvalInterval = 5;
    cfg.qualitySamples = 2000;
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_FALSE(std::isnan(stats.meanChamfer));
    EXPECT_GT(stats.meanChamfer, 0.0);
    EXPECT_LT(stats.meanChamfer, 0.1);
    std::size_t evaluated = 0;
    for (const auto& f : stats.frames)
        if (!std::isnan(f.chamfer)) ++evaluated;
    EXPECT_EQ(evaluated, 2u);
}

TEST(Session, NarrowLinkStallsTraditionalNotKeypoint) {
    SessionConfig cfg = fastConfig(15);
    cfg.link.bandwidth = net::BandwidthTrace::constant(5e6);  // 5 Mbps

    auto keypoint = makeKeypointChannel({.reconResolution = 16});
    const auto kp = runSession(*keypoint, sharedModel(), cfg);
    auto traditional = makeTraditionalChannel({false, false});
    const auto trad = runSession(*traditional, sharedModel(), cfg);

    EXPECT_LT(kp.meanTransferMs, 50.0);
    EXPECT_EQ(kp.deliveredFrames, 15u);
    // Raw mesh frames (~400 KB) overflow the 256 KB bottleneck queue
    // within a single message: none of them survive the narrow link.
    EXPECT_EQ(trad.deliveredFrames, 0u);
    EXPECT_GT(trad.telemetry.counters.queueDrops, 0u);
}

TEST(Session, LossyLinkStillDeliversWithArq) {
    SessionConfig cfg = fastConfig(15);
    cfg.link.lossRate = 0.05;
    auto channel = makeKeypointChannel({.reconResolution = 16});
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_EQ(stats.deliveredFrames, 15u);
}

TEST(Session, DropWhenBusySkipsFramesForSlowStages) {
    // A channel whose reconstruction is far slower than the frame
    // interval must shed frames in live mode — the paper's <1 FPS
    // reconstruction cannot keep up with a 30 FPS capture.
    TextChannelOptions opt;
    opt.reconResolution = 64;  // slow on purpose
    auto channel = makeTextChannel(opt);
    SessionConfig cfg = fastConfig(12);
    cfg.dropWhenBusy = true;
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_GT(stats.droppedSenderFrames + stats.droppedReceiverFrames, 0u);
    EXPECT_LT(stats.decodedFrames, 12u);
    // Processed frames still have bounded end-to-end latency.
    for (const auto& f : stats.frames) {
        if (!f.decoded) continue;
        EXPECT_LT(f.e2eMs, 3000.0);
    }
}

TEST(Session, QueueingModeProcessesEveryFrame) {
    TextChannelOptions opt;
    opt.reconResolution = 32;
    opt.reconstructMesh = false;
    auto channel = makeTextChannel(opt);
    SessionConfig cfg = fastConfig(8);
    cfg.dropWhenBusy = false;
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_EQ(stats.droppedSenderFrames, 0u);
    EXPECT_EQ(stats.deliveredFrames, 8u);
}

TEST(Session, FullRunOutageYieldsFiniteZeroAggregates) {
    // A link that is down for the whole session (full-run outage): every
    // frame is captured, encoded and sent, none is delivered or decoded.
    // The finalize contract is 0 (or NaN where documented), never a
    // division by zero or an infinity.
    SessionConfig cfg = fastConfig(12);
    cfg.transfer.reliable = false;  // no ARQ riding out the outage
    cfg.link.lossRate = 1.0;        // link down for the whole run
    auto channel = makeKeypointChannel({.reconResolution = 16});
    const auto stats = runSession(*channel, sharedModel(), cfg);

    EXPECT_EQ(stats.frames.size(), 12u);
    EXPECT_EQ(stats.deliveredFrames, 0u);
    EXPECT_EQ(stats.decodedFrames, 0u);
    // Sender-side aggregates still exist (frames were encoded and sent)…
    EXPECT_GT(stats.meanBytesPerFrame, 0.0);
    EXPECT_GT(stats.bandwidthMbps, 0.0);
    // …receiver-side aggregates are zero by contract, not NaN/inf.
    EXPECT_EQ(stats.meanE2eMs, 0.0);
    EXPECT_EQ(stats.p95E2eMs, 0.0);
    EXPECT_EQ(stats.meanReconMs, 0.0);
    EXPECT_EQ(stats.achievableFps, 0.0);
    // Quality was never evaluated: NaN by contract.
    EXPECT_TRUE(std::isnan(stats.meanChamfer));
    EXPECT_FALSE(std::isinf(stats.meanTransferMs));
    EXPECT_EQ(stats.telemetry.counters.framesDelivered, 0u);
    EXPECT_EQ(stats.telemetry.counters.packetsDelivered, 0u);
    EXPECT_EQ(stats.telemetry.counters.packets,
              stats.telemetry.counters.packetsUnrecovered);
}

TEST(Session, ZeroFrameSessionIsAllZeroAggregates) {
    // frames == 0 exercises the sent == 0 and zero-span branches.
    SessionConfig cfg = fastConfig(0);
    auto channel = makeKeypointChannel({.reconResolution = 16});
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_TRUE(stats.frames.empty());
    EXPECT_EQ(stats.meanBytesPerFrame, 0.0);
    EXPECT_EQ(stats.bandwidthMbps, 0.0);
    EXPECT_EQ(stats.meanE2eMs, 0.0);
    EXPECT_EQ(stats.achievableFps, 0.0);
    EXPECT_TRUE(std::isnan(stats.meanChamfer));
}

// ---- Pinned session digests ------------------------------------------------
//
// runSession's complete Simulated-timing output over a seeded grid, folded
// into one FNV-1a digest per configuration: every FrameStats field except
// the wall-clock stage times (extractMs, reconMs, qualityMs, reconFieldMs,
// reconExtractMs), the telemetry counters, and the queue-depth samples the
// link observer records. The constants were recorded from the hand-written
// serial and parallel session loops that preceded the stage-graph engine,
// so they pin that engine's behaviour at every worker count.

class Fnv1a {
public:
    void add(std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xFF;
            hash_ *= 0x100000001b3ULL;
        }
    }
    void add(double value) {
        add(std::isnan(value) ? std::uint64_t{0x7ff8000000000000ULL}
                              : std::bit_cast<std::uint64_t>(value));
    }
    std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_{0xcbf29ce484222325ULL};
};

std::uint64_t sessionDigest(const SessionStats& stats) {
    Fnv1a h;
    h.add(std::uint64_t{stats.frames.size()});
    for (const FrameStats& f : stats.frames) {
        h.add(std::uint64_t{f.frameId});
        h.add(std::uint64_t{f.bytes});
        h.add(f.transferMs);
        h.add(f.e2eMs);
        h.add(std::uint64_t{f.delivered} | std::uint64_t{f.decoded} << 1 |
              std::uint64_t{f.droppedAtSender} << 2 |
              std::uint64_t{f.droppedAtReceiver} << 3);
        h.add(f.chamfer);
        for (const std::uint64_t c :
             {f.reconBlocksSkipped, f.reconBlocksCached, f.reconBonesBlended,
              f.reconBonesPruned, f.reconBonesCulled, f.reconNodesEvaluated,
              f.reconCertTests, f.reconActiveCells, f.reconReusedTopologyBlocks})
            h.add(c);
    }
    const telemetry::Counters& c = stats.telemetry.counters;
    for (const std::uint64_t v :
         {c.framesCaptured, c.framesDelivered, c.framesDecoded, c.dropsAtSender,
          c.dropsAtReceiver, c.packets, c.packetsLost, c.packetsDelivered,
          c.packetsUnrecovered, c.retransmissions, c.queueDrops, c.bytesSent,
          c.faultEvents, c.degradations, c.upgrades, c.reconBlocksSkipped,
          c.reconBlocksCached, c.reconBonesBlended, c.reconBonesPruned,
          c.reconBonesCulled, c.reconNodesEvaluated, c.reconCertTests,
          c.reconActiveCells, c.reconReusedTopologyBlocks})
        h.add(v);
    const telemetry::Histogram& queue = stats.telemetry.queueDepthBytes;
    h.add(std::uint64_t{queue.count()});
    h.add(queue.sum());
    return h.value();
}

const body::BodyModel& digestModel() {
    static const body::BodyModel model{body::ShapeParams{}, 24};
    return model;
}

// Simulated stage costs above the frame interval, so dropWhenBusy sheds
// frames at the sender (keypoint, synthetic) and receiver (synthetic).
ChannelSpec digestSpec(const std::string& kind) {
    if (kind == "keypoint")
        return {kind, {{"reconResolution", 12}, {"simulatedDetectMs", 40.0}}};
    if (kind == "text") return {kind, {{"reconResolution", 12}}};
    if (kind == "synthetic")
        return {kind, {{"simulatedExtractMs", 20.0}, {"simulatedReconMs", 45.0}}};
    return {kind, {}};
}

// Faulty variant: a narrow link with a small queue, an outage, a
// bandwidth collapse and Gilbert-Elliott burst loss, with the closed-loop
// degradation policy on. Clean variant: a wide link with i.i.d. loss.
SessionConfig digestConfig(bool dropWhenBusy, bool faults,
                           std::size_t qualityInterval, std::size_t workers) {
    SessionConfig cfg;
    cfg.frames = 15;
    cfg.timing = TimingModel::Simulated;
    cfg.dropWhenBusy = dropWhenBusy;
    cfg.qualityEvalInterval = qualityInterval;
    cfg.qualitySamples = 300;
    cfg.workers = workers;
    cfg.link.seed = 7;
    if (faults) {
        cfg.link.bandwidth = net::BandwidthTrace::constant(6e6);
        cfg.link.queueCapacityBytes = 32 * 1024;
        cfg.link.faults.outages.push_back({0.1, 0.1});
        cfg.link.faults.collapses.push_back({0.25, 0.15, 0.1});
        cfg.link.faults.burstLoss.enabled = true;
        cfg.link.faults.burstLoss.pGoodToBad = 0.2;
        cfg.degradation.enabled = true;
        cfg.degradation.downgradeAfter = 2;
        cfg.degradation.upgradeAfter = 3;
    } else {
        cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
        cfg.link.lossRate = 0.02;
    }
    return cfg;
}

// Pinned digests in (dropWhenBusy, faults, qualityEvalInterval) order:
// index = drop * 4 + faults * 2 + (interval == 3). The faulty cases must
// actually enter fault windows and, where 'degrades', step the
// degradation ladder, so the grid cannot silently stop covering the
// closed loop.
void expectPinnedDigests(const std::string& kind, bool degrades,
                         const std::array<std::uint64_t, 8>& pinned) {
    std::uint64_t faultEvents = 0, degradations = 0;
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        const bool drop = i & 4, faults = i & 2;
        const std::size_t interval = i & 1 ? 3 : 0;
        for (const std::size_t workers : {1, 2, 8}) {
            auto channel = makeChannel(digestSpec(kind), &digestModel());
            const SessionStats stats =
                runSession(*channel, digestModel(),
                           digestConfig(drop, faults, interval, workers));
            faultEvents += stats.telemetry.counters.faultEvents;
            degradations += stats.telemetry.counters.degradations;
            const std::uint64_t digest = sessionDigest(stats);
            char hex[32];
            std::snprintf(hex, sizeof hex, "0x%016" PRIx64 "ULL", digest);
            EXPECT_EQ(digest, pinned[i])
                << kind << " dropWhenBusy=" << drop << " faults=" << faults
                << " qualityEvalInterval=" << interval << " workers=" << workers
                << " digest=" << hex;
        }
    }
    EXPECT_GT(faultEvents, 0u) << kind;
    if (degrades) {
        EXPECT_GT(degradations, 0u) << kind;
    }
}

TEST(SessionDigest, Keypoint) {
    expectPinnedDigests("keypoint", true,
                        {0x391cd34110095a7dULL, 0x0a2c2a10805e501eULL,
                         0x8d2e98a937ad8b56ULL, 0x3975f1be3034d379ULL,
                         0x727e774935ab974bULL, 0xfcc68a7f1051c0b4ULL,
                         0xd0f24f59b442a2f2ULL, 0x9cfadcb1c2054c71ULL});
}

TEST(SessionDigest, AdaptiveMesh) {
    expectPinnedDigests("adaptive-mesh", true,
                        {0xcd562b14fa58bfd1ULL, 0x93e30d1b67f57372ULL,
                         0x3ee1061397e46bf2ULL, 0x531114f3bcf5b930ULL,
                         0xcd562b14fa58bfd1ULL, 0x93e30d1b67f57372ULL,
                         0x3ee1061397e46bf2ULL, 0x531114f3bcf5b930ULL});
}

// The caption cost keeps text's few sends clear of the ladder's trigger.
TEST(SessionDigest, Text) {
    expectPinnedDigests("text", false,
                        {0xc260e1a7d0533a44ULL, 0xc872ff1b23d8026bULL,
                         0x953cd7f7f074b43bULL, 0x442d812363d23d30ULL,
                         0x8e45e68ecce3b9b6ULL, 0x80d4192d538a346bULL,
                         0x1f8482e35a2a2b5cULL, 0xc4b28587a6458aa5ULL});
}

TEST(SessionDigest, Synthetic) {
    expectPinnedDigests("synthetic", true,
                        {0x03a010aeff209c6eULL, 0x03a010aeff209c6eULL,
                         0x712e7e1a2bfdbea0ULL, 0x712e7e1a2bfdbea0ULL,
                         0x52b7053cde8cdbdbULL, 0x52b7053cde8cdbdbULL,
                         0x6467f62851dee4eeULL, 0x6467f62851dee4eeULL});
}

TEST(QoE, PerfectSessionScoresHigh) {
    SessionStats stats;
    stats.frames.resize(30);
    stats.deliveredFrames = 30;
    stats.meanE2eMs = 40.0;
    stats.achievableFps = 60.0;
    stats.meanChamfer = 0.003;
    const auto qoe = computeQoE(stats);
    EXPECT_GT(qoe.mos, 4.0);
    EXPECT_NEAR(qoe.qualityTerm, 1.0, 1e-6);
    EXPECT_NEAR(qoe.latencyTerm, 1.0, 1e-6);
}

TEST(QoE, LatencyDegradesScore) {
    SessionStats fast, slow;
    fast.frames.resize(10);
    slow.frames.resize(10);
    fast.deliveredFrames = slow.deliveredFrames = 10;
    fast.achievableFps = slow.achievableFps = 30.0;
    fast.meanChamfer = slow.meanChamfer = 0.01;
    fast.meanE2eMs = 50.0;
    slow.meanE2eMs = 800.0;
    EXPECT_GT(computeQoE(fast).mos, computeQoE(slow).mos + 0.5);
}

TEST(QoE, LowFpsPenalized) {
    SessionStats smooth, choppy;
    smooth.frames.resize(10);
    choppy.frames.resize(10);
    smooth.deliveredFrames = choppy.deliveredFrames = 10;
    smooth.meanE2eMs = choppy.meanE2eMs = 50.0;
    smooth.meanChamfer = choppy.meanChamfer = 0.01;
    smooth.achievableFps = 30.0;
    choppy.achievableFps = 1.0;  // the paper's <1 FPS reconstruction
    EXPECT_GT(computeQoE(smooth).mos, computeQoE(choppy).mos);
}

TEST(QoE, UndeliveredFramesCollapseScore) {
    SessionStats stats;
    stats.frames.resize(10);
    stats.deliveredFrames = 0;
    stats.meanE2eMs = 50.0;
    stats.achievableFps = 30.0;
    EXPECT_DOUBLE_EQ(computeQoE(stats).mos, 0.0);
}

TEST(QoE, NeutralQualityWhenUnevaluated) {
    SessionStats stats;
    stats.frames.resize(5);
    stats.deliveredFrames = 5;
    stats.meanE2eMs = 50.0;
    stats.achievableFps = 30.0;
    const auto qoe = computeQoE(stats);
    EXPECT_NEAR(qoe.qualityTerm, 0.5, 1e-9);
}

}  // namespace
}  // namespace semholo::core
