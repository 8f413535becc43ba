// Multi-user sessions on the pre-SFU topology: a conference whose
// participants share one uplink bottleneck, with no downlink fan-out and
// no arbiter.
#include <gtest/gtest.h>

#include "semholo/core/conference.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 40};
    return model;
}

const ChannelSpec kKeypoint{"keypoint", {{"reconResolution", 16}}};

// 'users' participants publishing 'spec' through one shared uplink.
MultiSessionStats runSharedUplink(const ChannelSpec& spec, std::size_t users,
                                  const SessionConfig& base) {
    ConferenceConfig conf;
    conf.session = base;
    conf.sharedUplink = true;
    conf.enableDownlinks = false;
    conf.participants.resize(users);
    for (Participant& p : conf.participants) p.channel = spec;
    return runConference(conf, sharedModel());
}

SessionConfig baseConfig(std::size_t frames = 10) {
    SessionConfig cfg;
    cfg.frames = frames;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
    cfg.link.jitterStddevS = 0.0;
    cfg.dropWhenBusy = false;
    return cfg;
}

TEST(MultiUser, EmptyChannelListSafe) {
    const auto stats = runSharedUplink(kKeypoint, 0, baseConfig());
    EXPECT_TRUE(stats.perUser.empty());
    EXPECT_DOUBLE_EQ(stats.aggregateMbps, 0.0);
}

TEST(MultiUser, SingleUserMatchesSoloSessionScale) {
    const auto multi = runSharedUplink(kKeypoint, 1, baseConfig());
    ASSERT_EQ(multi.perUser.size(), 1u);
    const auto& s = multi.perUser[0];
    EXPECT_EQ(s.deliveredFrames, 10u);
    EXPECT_NEAR(multi.aggregateMbps, s.bandwidthMbps, 1e-9);
    EXPECT_GT(s.meanBytesPerFrame, 100.0);
}

TEST(MultiUser, AggregateBandwidthScalesWithUsers) {
    const auto s2 = runSharedUplink(kKeypoint, 2, baseConfig());
    const auto s4 = runSharedUplink(kKeypoint, 4, baseConfig());
    EXPECT_NEAR(s4.aggregateMbps, 2.0 * s2.aggregateMbps, 0.3 * s2.aggregateMbps);
}

TEST(MultiUser, DistinctMotionSeedsPerUser) {
    const auto stats = runSharedUplink(kKeypoint, 2, baseConfig());
    // Different seeds -> different poses -> (slightly) different
    // compressed payload sizes on at least one frame.
    bool differs = false;
    for (std::size_t f = 0; f < stats.perUser[0].frames.size(); ++f)
        if (stats.perUser[0].frames[f].bytes != stats.perUser[1].frames[f].bytes)
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(MultiUser, SharedBottleneckCongestsHeavyChannels) {
    // Four raw-mesh users through 25 Mbps: latency must blow up relative
    // to a single user.
    const ChannelSpec rawMesh{"traditional", {{"compress", 0}, {"withColors", 0}}};
    SessionConfig cfg = baseConfig(6);
    cfg.link.queueCapacityBytes = 8 * 1024 * 1024;
    const auto s1 = runSharedUplink(rawMesh, 1, cfg);
    const auto s4 = runSharedUplink(rawMesh, 4, cfg);
    EXPECT_GT(s4.meanE2eMs, s1.meanE2eMs * 2.0);
}

TEST(MultiUser, KeypointFleetMeetsLatencyBudget) {
    const auto stats = runSharedUplink(kKeypoint, 6, baseConfig());
    EXPECT_EQ(stats.usersWithinLatency(200.0), 6u);
    EXPECT_LT(stats.aggregateMbps, 3.0);
}

}  // namespace
}  // namespace semholo::core
