// The benchmark's workloads and the one engine call each repeat makes.
//
// Every workload is a closed loop driven from one process: the engine
// starts a frame when the previous one's work is done, and the pipeline
// clocks run on TimingModel::Simulated, so drops, degradation and
// arbiter decisions are a pure function of the seed and only wall-clock
// figures vary between runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "semholo/core/conference.hpp"
#include "timed_channel.hpp"

namespace perfbench {

struct Workload {
    std::string name;
    bool conference{false};
    // One channel spec per participant (one for the solo workloads).
    std::vector<core::ChannelSpec> specs;
    // Solo workloads use config.session with runSession; the conference
    // runs the whole config through runConference.
    core::ConferenceConfig config;
    std::size_t frames() const { return config.session.frames; }
    std::size_t users() const { return specs.size(); }
};

// Throws std::invalid_argument on an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed);

struct EngineRun {
    // Solo runs carry their one SessionStats as perUser[0], with its
    // telemetry copied to the top level.
    core::MultiSessionStats stats;
    Interval span;  // the runSession / runConference call, ms
    std::size_t frames{0};
};

// One engine call over 'frames' capture ticks, every channel wrapped in
// a TimedChannel recording into 'recorder'.
EngineRun runEngine(const Workload& workload, const body::BodyModel& model,
                    std::size_t frames, RunRecorder& recorder);

}  // namespace perfbench
