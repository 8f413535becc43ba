// SFU conference engine: the ConferenceConfig entry API, the downlink
// fan-out accounting (per-viewer bytes sum to the server totals, packet
// conservation on every uplink and downlink), the serial/parallel
// byte-identity contract with downlinks and arbitration enabled, the
// subscription ladder, and the BandwidthArbiter allocation properties.
#include <gtest/gtest.h>

#include <vector>

#include "semholo/core/conference.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 24};
    return model;
}

// A congested conference: a shared uplink too narrow for every
// adaptive-mesh participant's top rung, faults included, degradation on.
ConferenceConfig congestedConference(std::size_t users,
                                     ArbiterStrategy strategy,
                                     bool downlinks) {
    ConferenceConfig conf;
    conf.session.frames = 40;
    conf.session.fps = 30.0;
    conf.session.timing = TimingModel::Simulated;
    conf.session.transfer.reliable = false;
    conf.session.link.bandwidth = net::BandwidthTrace::constant(8e6);
    conf.session.link.propagationDelayS = 0.01;
    conf.session.link.jitterStddevS = 0.0;
    conf.session.link.queueCapacityBytes = 16 * 1024;
    conf.session.link.faults.outages.push_back({0.4, 0.3});
    conf.session.degradation.enabled = true;
    conf.session.degradation.maxLevel = 3;
    conf.session.degradation.downgradeAfter = 2;
    conf.session.degradation.upgradeAfter = 8;
    conf.arbiter.strategy = strategy;
    conf.enableDownlinks = downlinks;
    conf.downlink.bandwidth = net::BandwidthTrace::constant(50e6);
    conf.downlink.jitterStddevS = 0.0;
    conf.downlink.queueCapacityBytes = 512 * 1024;
    conf.participants.resize(users);
    for (auto& p : conf.participants)
        p.channel = {"adaptive-mesh", {}};
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
        }
    }
}

// ---- Entry API -------------------------------------------------------------

TEST(Conference, EmptyConferenceYieldsEmptyStats) {
    ConferenceConfig conf;
    const auto stats = runConference(conf, sharedModel());
    EXPECT_TRUE(stats.perUser.empty());
    EXPECT_TRUE(stats.downlinks.empty());
    EXPECT_DOUBLE_EQ(stats.fairnessIndex, 1.0);
}

TEST(Conference, ParticipantWithoutChannelThrows) {
    ConferenceConfig conf;
    conf.participants.resize(1);  // neither spec kind nor factory
    EXPECT_THROW(runConference(conf, sharedModel()), std::invalid_argument);
}

TEST(Conference, ChannelFactoryOverridesSpec) {
    ConferenceConfig conf;
    conf.session.frames = 4;
    conf.session.timing = TimingModel::Simulated;
    conf.session.link.bandwidth = net::BandwidthTrace::constant(25e6);
    conf.session.link.jitterStddevS = 0.0;
    conf.enableDownlinks = false;
    conf.participants.resize(1);
    conf.participants[0].channel = {"does-not-exist", {}};  // would throw
    bool factoryUsed = false;
    conf.participants[0].channelFactory =
        [&factoryUsed](const body::BodyModel&) {
            factoryUsed = true;
            return makeKeypointChannel({});
        };
    const auto stats = runConference(conf, sharedModel());
    EXPECT_TRUE(factoryUsed);
    EXPECT_EQ(stats.perUser.size(), 1u);
    EXPECT_GT(stats.perUser[0].deliveredFrames, 0u);
}

// ---- Downlink fan-out accounting -------------------------------------------

TEST(Conference, DownlinkBytesSumToServerFanoutTotals) {
    const auto stats = runConference(
        congestedConference(3, ArbiterStrategy::MaxMin, true), sharedModel());
    ASSERT_EQ(stats.downlinks.size(), 3u);

    std::uint64_t bytes = 0, frames = 0;
    for (const DownlinkStats& d : stats.downlinks) {
        // Each viewer subscribes to the other N-1 streams by default.
        ASSERT_EQ(d.streams.size(), 2u);
        std::uint64_t streamBytes = 0, streamFrames = 0;
        for (const DownlinkStreamStats& s : d.streams) {
            EXPECT_NE(s.source, d.viewer);
            streamBytes += s.bytesForwarded;
            streamFrames += s.framesForwarded;
        }
        // Per-viewer totals are the sums of their per-stream entries.
        EXPECT_EQ(streamBytes, d.bytesForwarded);
        EXPECT_EQ(streamFrames, d.framesForwarded);
        bytes += d.bytesForwarded;
        frames += d.framesForwarded;
    }
    EXPECT_EQ(bytes, stats.serverFanoutBytes);
    EXPECT_EQ(frames, stats.serverFanoutFrames);
    EXPECT_GT(stats.serverFanoutFrames, 0u);

    // Every delivered uplink frame is forwarded to the other 2 viewers.
    std::uint64_t delivered = 0;
    for (const auto& u : stats.perUser) delivered += u.deliveredFrames;
    EXPECT_EQ(stats.serverFanoutFrames, delivered * 2);

    // fanoutShare partitions the fan-out bytes.
    double share = 0.0;
    for (const DownlinkStats& d : stats.downlinks) share += d.fanoutShare;
    EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(Conference, PacketConservationOnEveryUplinkAndDownlink) {
    const auto stats = runConference(
        congestedConference(3, ArbiterStrategy::None, true), sharedModel());
    for (const SessionStats& u : stats.perUser) {
        const auto& c = u.telemetry.counters;
        EXPECT_GT(c.packets, 0u);
        EXPECT_EQ(c.packets, c.packetsDelivered + c.packetsUnrecovered);
    }
    for (const DownlinkStats& d : stats.downlinks) {
        EXPECT_GT(d.packets, 0u);
        EXPECT_EQ(d.packets, d.packetsDelivered + d.packetsUnrecovered);
        for (const DownlinkStreamStats& s : d.streams)
            EXPECT_EQ(s.packets, s.packetsDelivered + s.packetsUnrecovered);
    }
}

TEST(Conference, PerUserUplinksConservePacketsToo) {
    auto conf = congestedConference(3, ArbiterStrategy::MaxMin, true);
    conf.sharedUplink = false;
    net::LinkConfig narrow = conf.session.link;
    narrow.bandwidth = net::BandwidthTrace::constant(2e6);
    conf.participants[1].uplink = narrow;  // one user on a worse access link
    const auto stats = runConference(conf, sharedModel());
    for (const SessionStats& u : stats.perUser) {
        const auto& c = u.telemetry.counters;
        EXPECT_EQ(c.packets, c.packetsDelivered + c.packetsUnrecovered);
    }
}

// ---- Engine byte-identity with the full SFU topology -----------------------

TEST(Conference, SerialAndParallelIdenticalWithDownlinksAndArbiter) {
    std::vector<MultiSessionStats> results;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        auto conf = congestedConference(4, ArbiterStrategy::MaxMin, true);
        conf.session.workers = workers;
        results.push_back(runConference(conf, sharedModel()));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        expectSameFrames(results[0], results[i]);
        ASSERT_EQ(results[0].downlinks.size(), results[i].downlinks.size());
        for (std::size_t v = 0; v < results[0].downlinks.size(); ++v) {
            const DownlinkStats& a = results[0].downlinks[v];
            const DownlinkStats& b = results[i].downlinks[v];
            EXPECT_EQ(a.bytesForwarded, b.bytesForwarded) << "viewer " << v;
            EXPECT_EQ(a.bytesDelivered, b.bytesDelivered) << "viewer " << v;
            EXPECT_EQ(a.packets, b.packets) << "viewer " << v;
        }
        EXPECT_EQ(results[0].serverFanoutBytes, results[i].serverFanoutBytes);
    }
}

// ---- Subscription ladder ---------------------------------------------------

TEST(Conference, SubscriptionLadderDefaultsToEverythingFullQuality) {
    SubscriptionLadder ladder;
    EXPECT_EQ(ladder.scaleForPosition(0), 1.0);
    EXPECT_EQ(ladder.scaleForPosition(41), 1.0);
}

TEST(Conference, SubscriptionLadderRungsAndUnsubscribedTail) {
    SubscriptionLadder ladder;
    ladder.rungs = {{2, 1.0}, {1, 0.25}};  // 2 full, 1 thinned, rest dropped
    EXPECT_EQ(ladder.scaleForPosition(0), 1.0);
    EXPECT_EQ(ladder.scaleForPosition(1), 1.0);
    EXPECT_EQ(ladder.scaleForPosition(2), 0.25);
    EXPECT_FALSE(ladder.scaleForPosition(3).has_value());
}

TEST(Conference, SubscriptionLadderThinsDownlinkBytes) {
    auto conf = congestedConference(3, ArbiterStrategy::None, true);
    // Viewer 0 takes one full stream and one at a quarter of the bytes;
    // viewer 1 unsubscribes from everything past the first stream.
    conf.participants[0].subscription.rungs = {{1, 1.0}, {1, 0.25}};
    conf.participants[1].subscription.rungs = {{1, 1.0}};
    const auto stats = runConference(conf, sharedModel());

    const DownlinkStats& v0 = stats.downlinks[0];
    ASSERT_EQ(v0.streams.size(), 2u);
    // Same source frames were forwarded to both subscriptions, so the
    // thinned stream carries ~25% of the full stream's per-frame bytes.
    const DownlinkStats& v2 = stats.downlinks[2];  // default: both full
    ASSERT_EQ(v2.streams.size(), 2u);

    const DownlinkStats& v1 = stats.downlinks[1];
    ASSERT_EQ(v1.streams.size(), 1u);  // unsubscribed tail dropped
    EXPECT_EQ(v1.streams[0].source, 0u);

    // The quarter-scale subscription forwards fewer bytes than the same
    // source at full quality on viewer 2's downlink.
    const DownlinkStreamStats* v0thin = nullptr;
    for (const auto& s : v0.streams)
        if (s.source == 2) v0thin = &s;
    ASSERT_NE(v0thin, nullptr);
    const DownlinkStreamStats* v2full = nullptr;
    for (const auto& s : v2.streams)
        if (s.source == 1) v2full = &s;
    ASSERT_NE(v2full, nullptr);
    EXPECT_LT(v0thin->bytesForwarded,
              v0.streams[0].bytesForwarded);  // thinner than its full peer
}

// ---- Arbiter fairness ------------------------------------------------------

TEST(Conference, MaxMinArbiterEqualizesCongestedDelivery) {
    const auto off = runConference(
        congestedConference(3, ArbiterStrategy::None, false), sharedModel());
    const auto on = runConference(
        congestedConference(3, ArbiterStrategy::MaxMin, false), sharedModel());
    // Arbitration must not reduce aggregate delivery and must report the
    // targets it handed out.
    std::size_t offDelivered = 0, onDelivered = 0;
    for (const auto& u : off.perUser) offDelivered += u.deliveredFrames;
    for (const auto& u : on.perUser) onDelivered += u.deliveredFrames;
    EXPECT_GE(onDelivered, offDelivered);
    EXPECT_GE(on.fairnessIndex, off.fairnessIndex);
    for (const UserFairnessStats& f : on.fairness)
        EXPECT_GT(f.targetRateMbps, 0.0);
    for (const UserFairnessStats& f : off.fairness)
        EXPECT_DOUBLE_EQ(f.targetRateMbps, 0.0);
}

// ---- BandwidthArbiter::allocate unit tests ---------------------------------

TEST(ConferenceArbiter, MaxMinSplitsEquallyAmongGreedyUsers) {
    BandwidthArbiter arbiter({ArbiterStrategy::MaxMin, 0.9, 0.0});
    const auto t = arbiter.allocate(9e6, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0});
    ASSERT_EQ(t.size(), 3u);
    for (double x : t) EXPECT_NEAR(x, 2.7e6, 1.0);
}

TEST(ConferenceArbiter, MaxMinRedistributesUnusedShare) {
    BandwidthArbiter arbiter({ArbiterStrategy::MaxMin, 1.0, 0.0});
    // User 0 only wants 1 Mbps of the 9; the rest split the remainder.
    const auto t = arbiter.allocate(9e6, {1e6, 0.0, 0.0}, {0.0, 0.0, 0.0});
    EXPECT_NEAR(t[0], 1e6, 1.0);
    EXPECT_NEAR(t[1], 4e6, 1.0);
    EXPECT_NEAR(t[2], 4e6, 1.0);
}

TEST(ConferenceArbiter, AllocationsRespectTheFloor) {
    BandwidthArbiter arbiter({ArbiterStrategy::MaxMin, 0.9, 64e3});
    // Outage: zero capacity still yields the probe floor.
    const auto t = arbiter.allocate(0.0, {1e6, 1e6}, {0.0, 0.0});
    for (double x : t) EXPECT_DOUBLE_EQ(x, 64e3);
}

TEST(ConferenceArbiter, ProportionalFairFavorsStarvedUsers) {
    BandwidthArbiter arbiter({ArbiterStrategy::ProportionalFair, 1.0, 0.0});
    // User 0 has been getting 8 Mbps, user 1 only 1 Mbps: the starved
    // user receives the larger grant.
    const auto t = arbiter.allocate(9e6, {0.0, 0.0}, {8e6, 1e6});
    EXPECT_GT(t[1], t[0]);
    EXPECT_NEAR(t[0] + t[1], 9e6, 1.0);
}

TEST(ConferenceArbiter, NoneHandsEveryoneTheWholeBudget) {
    BandwidthArbiter arbiter({ArbiterStrategy::None, 0.5, 0.0});
    const auto t = arbiter.allocate(10e6, {0.0, 0.0}, {0.0, 0.0});
    for (double x : t) EXPECT_DOUBLE_EQ(x, 5e6);
}

}  // namespace
}  // namespace semholo::core
