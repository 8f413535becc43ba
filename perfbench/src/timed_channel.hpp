// Benchmark-side timing decorator around the library's channels.
//
// Every participant's channel is built by core::makeChannel and wrapped
// in a TimedChannel before the engine sees it. The decorator records
// the wall-clock span of each encode and decode call per (user, frame)
// from outside the library. In the traced run it also
// re-runs each keypoint payload through the layers the keypoint channel
// is built from — compress, body, recon — outside the decode span, and
// keeps their split and counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "semholo/core/channel.hpp"
#include "semholo/recon/keypoint_recon.hpp"
#include "stats.hpp"

namespace perfbench {

namespace body = semholo::body;
namespace core = semholo::core;
namespace mesh = semholo::mesh;
namespace recon = semholo::recon;

using Clock = std::chrono::steady_clock;

// One closed span for the Chrome trace (times in ms since the run origin).
struct Span {
    std::string name;
    std::string layer;  // Chrome trace category: core, compress, body, ...
    std::uint32_t user{};
    std::uint32_t frame{};
    double startMs{};
    double endMs{};
    std::uint64_t bytes{};
    std::uint32_t thread{};
};

// Thread-safe span sink shared by every participant of a run. Spans stay
// in memory and are written out when the benchmark ends.
class SpanLog {
public:
    SpanLog() = default;
    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    void add(std::string name, std::string layer, std::uint32_t user,
             std::uint32_t frame, double startMs, double endMs, std::uint64_t bytes);
    std::vector<Span> spans() const;

private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::unordered_map<std::thread::id, std::uint32_t> threads_;
};

inline constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

struct FrameTimes {
    double encodeStart{kUnset};
    double encodeEnd{kUnset};
    double decodeStart{kUnset};
    double decodeEnd{kUnset};
};

// One keypoint payload replayed through its layers.
struct Replay {
    double poseDecodeMs{};    // compress::codec2Decode
    double deserializeMs{};   // body::deserializePose
    double reconTotalMs{};    // recon::reconstructFromPose span
    double reconFieldMs{};    // its fieldSampleMs
    double reconExtractMs{};  // its extractMs
    double ikMs{};            // body::fitPoseToKeypoints on the pose's joints
    double channelDecodeMs{}; // the channel's own decode span for this frame
    std::size_t triangles{};
    recon::ReconstructionStats stats;
    // The engine's own counters for the same decode (FrameStats side).
    std::uint64_t channelBlocksCached{};
    std::uint64_t channelReusedTopologyBlocks{};
    double replayMs() const { return poseDecodeMs + deserializeMs + reconTotalMs; }
};

struct PoseEncodeReplay {
    double encodeMs{};  // body::serializePose + compress::codec2Encode
    double ratio{};     // serialized pose bytes / channel payload bytes
};

// What one participant's channel did during one engine run.
struct UserLog {
    std::string kind;
    std::vector<FrameTimes> frames;  // indexed by frame id
    std::vector<double> encodeMs;    // channel encode spans
    std::vector<double> decodeMs;    // channel decode spans
    std::vector<Interval> calls;     // whole decorator calls
    std::vector<Replay> replays;
    std::vector<PoseEncodeReplay> poseEncodes;
    // Sampled (frame id, ground-truth pose, decoded mesh) for quality.
    struct QualitySample {
        std::uint32_t frame{};
        body::Pose pose;
        mesh::TriMesh mesh;
    };
    std::vector<QualitySample> quality;
    std::unordered_map<std::uint32_t, body::Pose> pendingPoses;
    std::uint64_t emptyKeypointMeshes{};
    std::mutex mutex;
};

struct RecorderOptions {
    // The traced run: replay keypoint payloads and record every channel
    // and layer call as a span here (nullptr = untraced).
    SpanLog* trace{nullptr};
    // Keep every qualityStride-th decoded keypoint mesh with its pose
    // (0 = keep none).
    std::size_t qualityStride{0};
};

// Everything the decorators of one engine run record.
class RunRecorder {
public:
    RunRecorder(std::size_t users, std::size_t frames, const RecorderOptions& options,
                Clock::time_point origin);
    RunRecorder(const RunRecorder&) = delete;
    RunRecorder& operator=(const RunRecorder&) = delete;

    double nowMs() const;
    UserLog& user(std::size_t u) { return *users_.at(u); }
    const UserLog& user(std::size_t u) const { return *users_.at(u); }
    std::size_t users() const { return users_.size(); }
    const RecorderOptions& options() const { return options_; }

private:
    Clock::time_point origin_;
    RecorderOptions options_;
    std::vector<std::unique_ptr<UserLog>> users_;
};

// Build 'spec' through core::makeChannel and wrap it for participant
// 'user' of the run 'recorder' describes.
std::unique_ptr<core::SemanticChannel> makeTimedChannel(
    const core::ChannelSpec& spec, const body::BodyModel& model,
    std::size_t user, RunRecorder& recorder);

}  // namespace perfbench
