#include "timed_channel.hpp"

#include "semholo/body/ik.hpp"
#include "semholo/body/pose.hpp"
#include "semholo/compress/codec2.hpp"

namespace perfbench {

namespace compress = semholo::compress;

void SpanLog::add(std::string name, std::string layer, std::uint32_t user,
                  std::uint32_t frame, double startMs, double endMs,
                  std::uint64_t bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = threads_.try_emplace(
        std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
    spans_.push_back(
        {std::move(name), std::move(layer), user, frame, startMs, endMs, bytes, it->second});
}

std::vector<Span> SpanLog::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

RunRecorder::RunRecorder(std::size_t users, std::size_t frames,
                         const RecorderOptions& options, Clock::time_point origin)
    : origin_(origin), options_(options) {
    for (std::size_t u = 0; u < users; ++u) {
        users_.push_back(std::make_unique<UserLog>());
        users_.back()->frames.resize(frames);
    }
}

double RunRecorder::nowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
}

namespace {

FrameTimes& frameSlot(UserLog& log, std::uint32_t frame) {
    if (frame >= log.frames.size()) log.frames.resize(frame + 1);
    return log.frames[frame];
}

// The engines call one participant's encode and decode in sequence (a
// user's next encode waits for its previous decode), so the UserLog lock
// is uncontended; it is there so the log stays sound if that changes.
class TimedChannel final : public core::SemanticChannel {
public:
    TimedChannel(std::unique_ptr<core::SemanticChannel> inner, const core::ChannelSpec& spec,
                 std::size_t user, RunRecorder& recorder)
        : inner_(std::move(inner)),
          kind_(spec.kind),
          keypoint_(spec.kind == "keypoint"),
          user_(static_cast<std::uint32_t>(user)),
          recorder_(recorder) {
        const auto res = spec.params.find("reconResolution");
        reconOptions_.resolution =
            res != spec.params.end() ? static_cast<int>(res->second)
                                     : core::KeypointChannelOptions{}.reconResolution;
        reconOptions_.device = recon::DeviceProfile::host();
        recorder_.user(user).kind = kind_;
    }

    std::string name() const override { return inner_->name(); }
    void reset() override { inner_->reset(); }

    core::EncodedFrame encode(const core::FrameContext& frame) override {
        const double t0 = recorder_.nowMs();
        core::EncodedFrame encoded = inner_->encode(frame);
        const double t1 = recorder_.nowMs();

        UserLog& log = recorder_.user(user_);
        const std::lock_guard<std::mutex> lock(log.mutex);
        FrameTimes& slot = frameSlot(log, encoded.frameId);
        slot.encodeStart = t0;
        slot.encodeEnd = t1;
        log.encodeMs.push_back(t1 - t0);
        SpanLog* trace = recorder_.options().trace;
        if (trace != nullptr)
            trace->add("encode " + kind_, "core", user_, encoded.frameId, t0, t1,
                       encoded.bytes());
        if (keypoint_) {
            if (trace != nullptr) replayEncode(frame, encoded, log, *trace);
            const std::size_t stride = recorder_.options().qualityStride;
            if (stride > 0 && encoded.frameId % stride == 0)
                log.pendingPoses[encoded.frameId] = frame.pose;
        }
        log.calls.push_back({t0, recorder_.nowMs()});
        return encoded;
    }

    core::DecodedFrame decode(const core::EncodedFrame& encoded) override {
        const double t0 = recorder_.nowMs();
        core::DecodedFrame decoded = inner_->decode(encoded);
        const double t1 = recorder_.nowMs();

        UserLog& log = recorder_.user(user_);
        const std::lock_guard<std::mutex> lock(log.mutex);
        FrameTimes& slot = frameSlot(log, encoded.frameId);
        slot.decodeStart = t0;
        slot.decodeEnd = t1;
        log.decodeMs.push_back(t1 - t0);
        SpanLog* trace = recorder_.options().trace;
        if (trace != nullptr)
            trace->add("decode " + kind_, "core", user_, encoded.frameId, t0, t1,
                       encoded.bytes());
        if (keypoint_) {
            if (!decoded.valid || decoded.mesh.empty()) ++log.emptyKeypointMeshes;
            if (trace != nullptr) replayDecode(encoded, decoded, t1 - t0, log, *trace);
            const auto pending = log.pendingPoses.find(encoded.frameId);
            if (pending != log.pendingPoses.end()) {
                log.quality.push_back({encoded.frameId, pending->second, decoded.mesh});
                log.pendingPoses.erase(pending);
            }
        }
        log.calls.push_back({t0, recorder_.nowMs()});
        return decoded;
    }

private:
    // Re-encode the captured pose with the default pose codec: the
    // compress layer's cost. The ratio is taken against what the channel
    // actually sent, so a codec change inside the channel moves it.
    void replayEncode(const core::FrameContext& frame, const core::EncodedFrame& encoded,
                      UserLog& log, SpanLog& trace) {
        const double t0 = recorder_.nowMs();
        const std::vector<std::uint8_t> raw = body::serializePose(frame.pose);
        const std::vector<std::uint8_t> packed =
            compress::codec2Encode(raw, compress::poseCodecDefaults());
        const double t1 = recorder_.nowMs();
        log.poseEncodes.push_back(
            {t1 - t0, encoded.bytes() > 0 ? static_cast<double>(raw.size()) /
                                                static_cast<double>(encoded.bytes())
                                          : 0.0});
        trace.add("serializePose+codec2Encode", "compress", user_, encoded.frameId, t0, t1,
                  packed.size());
    }

    // Replay the payload through codec2Decode -> deserializePose ->
    // reconstructFromPose (what the keypoint channel's decode does), then
    // the receiver-side IK on the same pose's joints.
    void replayDecode(const core::EncodedFrame& encoded, const core::DecodedFrame& decoded,
                      double channelDecodeMs, UserLog& log, SpanLog& trace) {
        Replay r;
        r.channelDecodeMs = channelDecodeMs;
        r.channelBlocksCached = decoded.reconBlocksCached;
        r.channelReusedTopologyBlocks = decoded.reconReusedTopologyBlocks;
        const double t0 = recorder_.nowMs();
        const auto payload = compress::codec2Decode(encoded.data);
        const double t1 = recorder_.nowMs();
        if (!payload) return;
        const auto pose = body::deserializePose(*payload);
        const double t2 = recorder_.nowMs();
        if (!pose) return;
        const recon::ReconstructionResult result =
            recon::reconstructFromPose(*pose, reconOptions_);
        const double t3 = recorder_.nowMs();
        const auto keypoints = body::jointKeypoints(*pose);
        const double t4 = recorder_.nowMs();
        static_cast<void>(body::fitPoseToKeypoints(keypoints));
        const double t5 = recorder_.nowMs();

        r.poseDecodeMs = t1 - t0;
        r.deserializeMs = t2 - t1;
        r.reconTotalMs = t3 - t2;
        r.reconFieldMs = result.fieldSampleMs;
        r.reconExtractMs = result.extractMs;
        r.ikMs = t5 - t4;
        r.triangles = result.mesh.triangleCount();
        r.stats = result.stats;
        log.replays.push_back(r);

        const std::uint32_t f = encoded.frameId;
        trace.add("codec2Decode", "compress", user_, f, t0, t1, encoded.bytes());
        trace.add("deserializePose", "body", user_, f, t1, t2, payload->size());
        trace.add("reconstructFromPose", "recon", user_, f, t2, t3, 0);
        // The library reports the field/extract split as durations; both
        // passes run back to back at the end of the call.
        const double extractStart = t3 - r.reconExtractMs;
        trace.add("field sampling", "recon", user_, f, extractStart - r.reconFieldMs,
                  extractStart, 0);
        trace.add("iso-surface extraction", "mesh", user_, f, extractStart, t3, 0);
        trace.add("fitPoseToKeypoints", "body", user_, f, t4, t5, 0);
    }

    std::unique_ptr<core::SemanticChannel> inner_;
    std::string kind_;
    bool keypoint_;
    std::uint32_t user_;
    RunRecorder& recorder_;
    recon::ReconstructionOptions reconOptions_;
};

}  // namespace

std::unique_ptr<core::SemanticChannel> makeTimedChannel(const core::ChannelSpec& spec,
                                                        const body::BodyModel& model,
                                                        std::size_t user,
                                                        RunRecorder& recorder) {
    return std::make_unique<TimedChannel>(core::makeChannel(spec, &model), spec, user,
                                          recorder);
}

}  // namespace perfbench
