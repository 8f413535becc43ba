// Event-driven stage-graph conference runtime: the straggler scenario
// (heterogeneous per-user encode/decode costs over synthetic channels)
// must stay byte-identical between the serial and pipelined executors at
// every worker count and pipeline depth, and the deterministic schedule
// comparison must show the stage graph strictly beating the legacy
// per-tick barrier on exactly that scenario. Also covers the pipeline
// telemetry surfaced through MultiSessionStats::pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "semholo/core/conference.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 24};
    return model;
}

// A straggler mix: one encode-heavy user, one decode-heavy user, two in
// between. Under the legacy barrier every tick costs max(enc) + max(dec)
// regardless of who is slow where; the stage graph de-staggers the
// per-user chains, whose worst cost is only max(enc_u + dec_u).
struct UserCost {
    double extractMs;
    double reconMs;
};
const std::vector<UserCost>& stragglerCosts() {
    static const std::vector<UserCost> costs{
        {12.0, 2.0}, {2.0, 12.0}, {6.0, 6.0}, {3.0, 3.0}};
    return costs;
}

ConferenceConfig stragglerConference(std::size_t workers, std::size_t depth) {
    ConferenceConfig conf;
    conf.session.frames = 40;
    conf.session.fps = 30.0;
    conf.session.timing = TimingModel::Simulated;
    conf.session.transfer.reliable = false;
    conf.session.workers = workers;
    conf.session.link.bandwidth = net::BandwidthTrace::constant(8e6);
    conf.session.link.propagationDelayS = 0.01;
    conf.session.link.jitterStddevS = 0.0;
    conf.session.link.queueCapacityBytes = 32 * 1024;
    conf.session.link.faults.outages.push_back({0.4, 0.3});
    conf.session.degradation.enabled = true;
    conf.session.degradation.maxLevel = 3;
    conf.session.degradation.downgradeAfter = 2;
    conf.session.degradation.upgradeAfter = 8;
    conf.arbiter.strategy = ArbiterStrategy::MaxMin;
    conf.enableDownlinks = true;
    conf.downlink.bandwidth = net::BandwidthTrace::constant(50e6);
    conf.downlink.jitterStddevS = 0.0;
    conf.downlink.queueCapacityBytes = 512 * 1024;
    conf.pipelineDepth = depth;
    for (const UserCost& c : stragglerCosts()) {
        Participant p;
        p.channel = {"synthetic",
                     {{"payloadBytes", 24 * 1024},
                      {"simulatedExtractMs", c.extractMs},
                      {"simulatedReconMs", c.reconMs}}};
        conf.participants.push_back(std::move(p));
    }
    return conf;
}

void expectSameFrames(const MultiSessionStats& a, const MultiSessionStats& b) {
    ASSERT_EQ(a.perUser.size(), b.perUser.size());
    for (std::size_t u = 0; u < a.perUser.size(); ++u) {
        const auto& fa = a.perUser[u].frames;
        const auto& fb = b.perUser[u].frames;
        ASSERT_EQ(fa.size(), fb.size()) << "user " << u;
        for (std::size_t f = 0; f < fa.size(); ++f) {
            EXPECT_EQ(fa[f].bytes, fb[f].bytes) << "user " << u << " frame " << f;
            EXPECT_EQ(fa[f].delivered, fb[f].delivered)
                << "user " << u << " frame " << f;
            EXPECT_EQ(fa[f].droppedAtSender, fb[f].droppedAtSender)
                << "user " << u << " frame " << f;
            EXPECT_EQ(fa[f].droppedAtReceiver, fb[f].droppedAtReceiver)
                << "user " << u << " frame " << f;
            EXPECT_DOUBLE_EQ(fa[f].transferMs, fb[f].transferMs)
                << "user " << u << " frame " << f;
            EXPECT_DOUBLE_EQ(fa[f].e2eMs, fb[f].e2eMs)
                << "user " << u << " frame " << f;
        }
    }
}

// ---- Byte identity ---------------------------------------------------------

TEST(StageGraph, StragglerByteIdentityAcrossWorkersAndDepths) {
    // The reference is the serial run at depth 1 — the legacy barrier
    // schedule. Every (workers, depth) combination must reproduce it
    // exactly: pipeline depth and worker count change scheduling only.
    const auto reference = runConference(stragglerConference(1, 1),
                                         sharedModel());
    ASSERT_EQ(reference.perUser.size(), stragglerCosts().size());
    EXPECT_GT(reference.perUser[0].deliveredFrames, 0u);
    for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t workers :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " depth=" + std::to_string(depth));
            const auto run = runConference(stragglerConference(workers, depth),
                                           sharedModel());
            expectSameFrames(reference, run);
            ASSERT_EQ(run.downlinks.size(), reference.downlinks.size());
            for (std::size_t v = 0; v < run.downlinks.size(); ++v) {
                EXPECT_EQ(run.downlinks[v].bytesForwarded,
                          reference.downlinks[v].bytesForwarded);
                EXPECT_EQ(run.downlinks[v].packets,
                          reference.downlinks[v].packets);
            }
            EXPECT_EQ(run.serverFanoutBytes, reference.serverFanoutBytes);
            EXPECT_DOUBLE_EQ(run.fairnessIndex, reference.fairnessIndex);
        }
    }
}

// ---- Pipeline telemetry ----------------------------------------------------

TEST(StageGraph, PipelineStatsDescribeTheGraph) {
    const auto stats =
        runConference(stragglerConference(8, 4), sharedModel());
    const PipelineStats& p = stats.pipeline;
    EXPECT_TRUE(p.eventDriven);
    EXPECT_EQ(p.workers, 8u);
    EXPECT_EQ(p.pipelineDepth, 4u);
    EXPECT_GT(p.nodes, 0u);
    EXPECT_GT(p.edges, p.nodes);  // every non-root node has >= 1 edge in
    EXPECT_GE(p.maxTicksInFlight, 1u);
    EXPECT_LE(p.maxTicksInFlight, p.pipelineDepth);
    EXPECT_GT(p.wallMs, 0.0);
    // One stage row per kind in play, in stage order, each with release
    // latency samples for every node.
    std::vector<std::string> names;
    for (const PipelineStageStats& s : p.stages) {
        names.push_back(s.stage);
        EXPECT_GT(s.nodes, 0u);
        EXPECT_EQ(s.releaseLatencyMs.count(), s.nodes);
        EXPECT_GE(s.maxConcurrent, 1u);
    }
    const std::vector<std::string> expected{"arbiter", "encode", "uplink",
                                            "downlink", "decode", "retire"};
    EXPECT_EQ(names, expected);
    // 40 ticks x 4 users of encode/uplink/decode nodes.
    for (const PipelineStageStats& s : p.stages) {
        if (s.stage == "encode" || s.stage == "uplink" || s.stage == "decode") {
            EXPECT_EQ(s.nodes, 40u * 4u);
        }
    }
}

TEST(StageGraph, SerialRunReportsBarrierEquivalentSchedule) {
    // Depth 1 serial: the stage graph *is* the barrier schedule, and the
    // deterministic comparison at one worker must agree — both models
    // degenerate to the cost sum.
    const auto stats =
        runConference(stragglerConference(1, 1), sharedModel());
    const PipelineStats& p = stats.pipeline;
    EXPECT_FALSE(p.eventDriven);
    EXPECT_EQ(p.workers, 1u);
    EXPECT_EQ(p.maxTicksInFlight, 1u);
    EXPECT_NEAR(p.simulatedStageGraphMs, p.simulatedBarrierMs,
                1e-6 * p.simulatedBarrierMs);
    EXPECT_NEAR(p.simulatedSpeedup, 1.0, 1e-9);
}

TEST(StageGraph, QualityNodesRunOnSampledTicksOnly) {
    // Sampled Chamfer evaluation runs as Q(f,u) nodes off the decode
    // chain: one per user on every sampled tick, results folded into
    // exactly those frames, identical on the serial and pooled executors.
    std::vector<MultiSessionStats> runs;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        ConferenceConfig conf;
        conf.session.frames = 7;
        conf.session.timing = TimingModel::Simulated;
        conf.session.qualityEvalInterval = 3;
        conf.session.qualitySamples = 300;
        conf.session.workers = workers;
        conf.participants.resize(2);
        for (Participant& p : conf.participants)
            p.channel = {"keypoint", {{"reconResolution", 12}}};
        runs.push_back(runConference(conf, sharedModel()));
    }
    for (const MultiSessionStats& run : runs) {
        std::uint64_t qualityNodes = 0;
        for (const PipelineStageStats& s : run.pipeline.stages)
            if (s.stage == "quality") qualityNodes = s.nodes;
        EXPECT_EQ(qualityNodes, 2u * 3u);  // ticks 0, 3, 6
        for (const SessionStats& user : run.perUser) {
            ASSERT_EQ(user.frames.size(), 7u);
            for (std::size_t f = 0; f < user.frames.size(); ++f) {
                EXPECT_EQ(std::isnan(user.frames[f].chamfer), f % 3 != 0)
                    << "frame " << f;
                EXPECT_EQ(user.frames[f].qualityMs > 0.0, f % 3 == 0)
                    << "frame " << f;
            }
        }
    }
    for (std::size_t u = 0; u < 2; ++u)
        for (std::size_t f = 0; f < 7; f += 3)
            EXPECT_EQ(runs[0].perUser[u].frames[f].chamfer,
                      runs[1].perUser[u].frames[f].chamfer);
}

// ---- Deterministic pipelining win ------------------------------------------

TEST(StageGraph, StragglersPipelineStrictlyBetterThanBarrier) {
    // The schedule comparison is a pure function of (graph, recorded
    // simulated costs, workers) — runner-independent and exact. With the
    // straggler mix at 8 workers the barrier pays max(enc) + max(dec)
    // = 24 ms per tick while the stage graph pays at worst the heaviest
    // per-user chain (14 ms), so the speedup must clear 1.3x and idle
    // time must strictly shrink.
    const auto stats =
        runConference(stragglerConference(8, 4), sharedModel());
    const PipelineStats& p = stats.pipeline;
    EXPECT_GT(p.simulatedBarrierMs, 0.0);
    EXPECT_GT(p.simulatedStageGraphMs, 0.0);
    EXPECT_GE(p.simulatedSpeedup, 1.3);
    EXPECT_LT(p.simulatedIdleMs, p.simulatedBarrierIdleMs);

    // Depth 1 forbids cross-tick overlap: the same mix at the same
    // worker count must collapse to (near) barrier performance, so the
    // win demonstrably comes from pipeline depth, not from the executor.
    const auto depth1 =
        runConference(stragglerConference(8, 1), sharedModel());
    EXPECT_NEAR(depth1.pipeline.simulatedSpeedup, 1.0, 0.05);
    EXPECT_GT(p.simulatedSpeedup, depth1.pipeline.simulatedSpeedup + 0.25);
}

}  // namespace
}  // namespace semholo::core
