#include "semholo/core/session.hpp"

#include <gtest/gtest.h>

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
