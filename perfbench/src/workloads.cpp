#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

namespace net = semholo::net;

namespace {

core::SessionConfig soloSession(body::MotionKind motion, std::uint64_t seed) {
    core::SessionConfig s;
    s.fps = 30.0;
    // One second of motion per repeat: every repeat of a run replays the
    // same frames, so short repeats give more of them to take a median over.
    s.frames = 30;
    s.motion = motion;
    s.motionSeed = static_cast<std::uint32_t>(seed);
    s.timing = core::TimingModel::Simulated;
    s.workers = 1;
    s.link.bandwidth = net::BandwidthTrace::constant(20e6);
    s.link.seed = seed;
    return s;
}

Workload solo(std::string name, body::MotionKind motion, std::uint64_t seed) {
    Workload w;
    w.name = std::move(name);
    w.specs = {{"keypoint", {{"reconResolution", 128}}}};
    w.config.session = soloSession(motion, seed);
    return w;
}

// Eight participants behind one 20 Mbps reliable ingest link with
// random loss, an outage and a collapse; the max-min arbiter splits it,
// and every viewer's 50 Mbps downlink carries the other seven streams.
Workload conference8(std::uint64_t seed) {
    Workload w;
    w.name = "conference-8";
    w.conference = true;
    for (int i = 0; i < 3; ++i) w.specs.push_back({"keypoint", {{"reconResolution", 32}}});
    for (int i = 0; i < 2; ++i) w.specs.push_back({"adaptive-mesh", {}});
    for (int i = 0; i < 2; ++i)
        w.specs.push_back({"foveated", {{"peripheralResolution", 24}}});
    w.specs.push_back({"text", {}});

    core::ConferenceConfig& c = w.config;
    core::SessionConfig& s = c.session;
    s.fps = 30.0;
    s.frames = 120;  // four seconds: clean start, outage, collapse, recovery
    s.motion = body::MotionKind::Talk;
    s.motionSeed = static_cast<std::uint32_t>(seed);
    s.timing = core::TimingModel::Simulated;
    s.workers = 2;
    s.transfer.reliable = true;
    s.link.bandwidth = net::BandwidthTrace::constant(20e6);
    s.link.queueCapacityBytes = 256 * 1024;
    s.link.lossRate = 0.01;
    s.link.faults.outages.push_back({1.0, 0.5});
    s.link.faults.collapses.push_back({2.0, 1.0, 0.1});
    s.link.seed = seed;
    s.degradation.enabled = true;
    c.arbiter.strategy = core::ArbiterStrategy::MaxMin;
    c.sharedUplink = true;
    c.enableDownlinks = true;
    c.downlink.bandwidth = net::BandwidthTrace::constant(50e6);
    c.downlink.propagationDelayS = 0.01;
    c.downlink.queueCapacityBytes = 512 * 1024;
    c.downlink.seed = seed + 1;
    c.pipelineDepth = 4;
    c.participants.resize(w.specs.size());
    return w;
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
    if (name == "solo-talk-128") return solo(name, body::MotionKind::Talk, seed);
    if (name == "solo-walk-128") return solo(name, body::MotionKind::Walk, seed);
    if (name == "conference-8") return conference8(seed);
    throw std::invalid_argument("unknown workload '" + name +
                                "' (known: solo-talk-128, solo-walk-128, conference-8)");
}

EngineRun runEngine(const Workload& workload, const body::BodyModel& model,
                    std::size_t frames, RunRecorder& recorder) {
    EngineRun run;
    run.frames = frames;
    if (!workload.conference) {
        core::SessionConfig session = workload.config.session;
        session.frames = frames;
        const auto channel = makeTimedChannel(workload.specs[0], model, 0, recorder);
        run.span.start = recorder.nowMs();
        core::SessionStats stats = core::runSession(*channel, model, session);
        run.span.end = recorder.nowMs();
        run.stats.telemetry = stats.telemetry;
        run.stats.perUser.push_back(std::move(stats));
        return run;
    }
    core::ConferenceConfig config = workload.config;
    config.session.frames = frames;
    for (std::size_t u = 0; u < workload.users(); ++u) {
        config.participants[u].channelFactory =
            [&recorder, spec = workload.specs[u], u](const body::BodyModel& m) {
                return makeTimedChannel(spec, m, u, recorder);
            };
    }
    run.span.start = recorder.nowMs();
    run.stats = core::runConference(config, model);
    run.span.end = recorder.nowMs();
    return run;
}

}  // namespace perfbench
