#include "semholo/core/channel.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "semholo/compress/codec2.hpp"
#include "semholo/compress/meshcodec.hpp"
#include "semholo/gaze/foveation.hpp"
#include "semholo/recon/keypoint_recon.hpp"
#include "semholo/textsem/delta.hpp"

namespace semholo::core {

namespace {

double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

// Surface the sparse-reconstruction work accounting through the decoded
// frame so the session engines can aggregate it into telemetry.
void copyReconStats(const recon::ReconstructionResult& result, DecodedFrame& out) {
    out.reconBlocksSkipped = result.stats.blocksSkipped;
    out.reconBlocksCached = result.stats.blocksCached;
    out.reconBonesBlended = result.stats.bonesBlended;
    out.reconBonesPruned = result.stats.bonesPruned;
    out.reconBonesCulled = result.stats.bonesCulled;
    out.reconNodesEvaluated = result.stats.nodesEvaluated;
    out.reconCertTests = result.stats.certTests;
    out.reconActiveCells = result.stats.activeCells;
    out.reconReusedTopologyBlocks = result.stats.reusedTopologyBlocks;
    out.reconFieldMs = result.fieldSampleMs;
    out.reconExtractMs = result.extractMs;
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t getU32(std::span<const std::uint8_t> in, std::size_t& pos) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[pos++]) << (8 * i);
    return v;
}

// Raw (uncompressed) mesh wire format for the "traditional w/o
// compression" row of Table 2: header + positions + indices.
std::vector<std::uint8_t> serializeRawMesh(const mesh::TriMesh& m) {
    std::vector<std::uint8_t> out;
    putU32(out, static_cast<std::uint32_t>(m.vertexCount()));
    putU32(out, static_cast<std::uint32_t>(m.triangleCount()));
    const auto* vbytes = reinterpret_cast<const std::uint8_t*>(m.vertices.data());
    out.insert(out.end(), vbytes, vbytes + m.vertices.size() * sizeof(geom::Vec3f));
    const auto* tbytes = reinterpret_cast<const std::uint8_t*>(m.triangles.data());
    out.insert(out.end(), tbytes, tbytes + m.triangles.size() * sizeof(mesh::Triangle));
    return out;
}

bool deserializeRawMesh(std::span<const std::uint8_t> data, mesh::TriMesh& out) {
    std::size_t pos = 0;
    if (data.size() < 8) return false;
    const std::uint32_t nv = getU32(data, pos);
    const std::uint32_t nt = getU32(data, pos);
    const std::size_t need =
        8 + static_cast<std::size_t>(nv) * sizeof(geom::Vec3f) +
        static_cast<std::size_t>(nt) * sizeof(mesh::Triangle);
    if (data.size() != need) return false;
    out.vertices.resize(nv);
    std::memcpy(out.vertices.data(), data.data() + pos, nv * sizeof(geom::Vec3f));
    pos += nv * sizeof(geom::Vec3f);
    out.triangles.resize(nt);
    std::memcpy(out.triangles.data(), data.data() + pos, nt * sizeof(mesh::Triangle));
    for (const mesh::Triangle& t : out.triangles)
        if (t.a >= nv || t.b >= nv || t.c >= nv) return false;
    return true;
}

class TraditionalChannel final : public SemanticChannel {
public:
    explicit TraditionalChannel(const TraditionalOptions& options)
        : options_(options) {}

    std::string name() const override {
        return options_.compress ? "traditional+draco" : "traditional";
    }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        const auto t0 = std::chrono::steady_clock::now();
        mesh::TriMesh m = frame.groundTruth();
        if (!options_.withColors) m.colors.clear();
        if (options_.compress) {
            compress::MeshCodecOptions codec;
            codec.encodeColors = options_.withColors;
            out.data = compress::encodeMesh(m, codec);
        } else {
            out.data = serializeRawMesh(m);
        }
        out.measuredExtractMs = msSince(t0);
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        const auto t0 = std::chrono::steady_clock::now();
        if (options_.compress) {
            auto m = compress::decodeMesh(encoded.data);
            if (m) {
                out.mesh = std::move(*m);
                out.valid = true;
            }
        } else {
            out.valid = deserializeRawMesh(encoded.data, out.mesh);
            if (out.valid) out.mesh.computeVertexNormals();
        }
        out.measuredReconMs = msSince(t0);
        return out;
    }

private:
    TraditionalOptions options_;
};

class KeypointChannel final : public SemanticChannel {
public:
    explicit KeypointChannel(const KeypointChannelOptions& options)
        : options_(options) {}

    std::string name() const override { return "keypoint"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        const auto t0 = std::chrono::steady_clock::now();
        const auto payload = body::serializePose(frame.pose);
        out.data = options_.compressPayload
                       ? compress::codec2Encode(payload, options_.codec)
                       : payload;
        out.measuredExtractMs = msSince(t0);
        out.simulatedExtractMs = options_.simulatedDetectMs;
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        const auto t0 = std::chrono::steady_clock::now();
        std::optional<body::Pose> pose;
        if (options_.compressPayload) {
            const auto payload = compress::codec2Decode(encoded.data);
            if (payload) pose = body::deserializePose(*payload);
        } else {
            pose = body::deserializePose(encoded.data);
        }
        if (!pose) {
            out.measuredReconMs = msSince(t0);
            return out;
        }
        recon::ReconstructionOptions ro;
        ro.resolution = options_.reconResolution;
        ro.shape = options_.shape;
        ro.device = recon::DeviceProfile::host();
        auto result = recon::reconstructFromPose(*pose, ro);
        out.valid = result.success;
        out.mesh = std::move(result.mesh);
        copyReconStats(result, out);
        out.measuredReconMs = msSince(t0);
        return out;
    }

private:
    KeypointChannelOptions options_;
};

class TextChannel final : public SemanticChannel {
public:
    explicit TextChannel(const TextChannelOptions& options)
        : options_(options),
          encoder_(options.caption),
          decoder_(options.caption, options.shape) {}

    std::string name() const override { return "text"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        const auto t0 = std::chrono::steady_clock::now();
        const auto packet = encoder_.encode(frame.pose);
        // Wire: frameId | flags | mask | payload.
        putU32(out.data, packet.frameId);
        out.data.push_back(packet.keyframe ? 1 : 0);
        out.data.push_back(packet.globalPresent ? 1 : 0);
        putU32(out.data, packet.channelMask);
        out.data.insert(out.data.end(), packet.payload.begin(), packet.payload.end());
        out.measuredExtractMs = msSince(t0);
        out.simulatedExtractMs =
            textsem::captionCostMs(packet.cellsEncoded(), options_.cost);
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        if (encoded.data.size() < 10) return out;
        const auto t0 = std::chrono::steady_clock::now();
        std::size_t pos = 0;
        textsem::DeltaPacket packet;
        packet.frameId = getU32(encoded.data, pos);
        packet.keyframe = encoded.data[pos++] != 0;
        packet.globalPresent = encoded.data[pos++] != 0;
        packet.channelMask = getU32(encoded.data, pos);
        packet.payload.assign(encoded.data.begin() + static_cast<std::ptrdiff_t>(pos),
                              encoded.data.end());
        const auto pose = decoder_.decode(packet);
        if (pose) {
            if (options_.reconstructMesh) {
                recon::ReconstructionOptions ro;
                ro.resolution = options_.reconResolution;
                ro.shape = options_.shape;
                ro.device = recon::DeviceProfile::host();
                auto result = recon::reconstructFromPose(*pose, ro);
                out.valid = result.success;
                out.mesh = std::move(result.mesh);
                copyReconStats(result, out);
            } else {
                out.valid = true;
            }
        }
        out.measuredReconMs = msSince(t0);
        out.simulatedReconMs =
            textsem::reconCostMs(packet.cellsEncoded(), options_.cost);
        return out;
    }

    void reset() override {
        encoder_.reset();
        decoder_.reset();
    }

private:
    TextChannelOptions options_;
    textsem::DeltaEncoder encoder_;
    textsem::DeltaDecoder decoder_;
};

class FoveatedChannel final : public SemanticChannel {
public:
    explicit FoveatedChannel(const FoveatedOptions& options) : options_(options) {}

    std::string name() const override { return "foveated-hybrid"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        const auto t0 = std::chrono::steady_clock::now();

        // Foveal region: full-quality mesh around the viewer's gaze.
        // During a saccade, saccadic omission applies: vision is
        // suppressed, so the foveal stream shrinks to half radius and is
        // re-aimed at the *predicted landing position* — prefetching the
        // region the eye is about to land on (section 3.1).
        const bool suppressed = options_.saccadicOmission &&
                                frame.viewerGazeState ==
                                    gaze::EyeMovement::Saccade;
        const gaze::Vec2f aimDeg =
            suppressed ? frame.viewerPredictedLandingDeg : frame.viewerGazeDeg;

        const mesh::TriMesh gt = frame.groundTruth();
        std::vector<std::uint8_t> fovealBytes;
        {
            const geom::Ray gaze = gaze::gazeRay(frame.viewerHead, aimDeg);
            gaze::FoveationConfig fc;
            fc.fovealRadiusDeg =
                suppressed ? options_.fovealRadiusDeg * 0.5 : options_.fovealRadiusDeg;
            const auto partition = gaze::partitionMesh(gt, gaze, fc);
            const mesh::TriMesh foveal = gaze::extractFovealMesh(gt, partition);
            if (!foveal.empty()) {
                compress::MeshCodecOptions codec;
                codec.encodeColors = gt.hasColors();
                fovealBytes = compress::encodeMesh(foveal, codec);
            }
        }
        // Peripheral: the 1.91 KB pose payload.
        auto poseBytes = body::serializePose(frame.pose);
        if (options_.compress)
            poseBytes = compress::codec2Encode(poseBytes, options_.codec);

        putU32(out.data, static_cast<std::uint32_t>(fovealBytes.size()));
        out.data.insert(out.data.end(), fovealBytes.begin(), fovealBytes.end());
        out.data.insert(out.data.end(), poseBytes.begin(), poseBytes.end());
        out.measuredExtractMs = msSince(t0);
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        if (encoded.data.size() < 4) return out;
        const auto t0 = std::chrono::steady_clock::now();
        std::size_t pos = 0;
        const std::uint32_t fovealLen = getU32(encoded.data, pos);
        if (pos + fovealLen > encoded.data.size()) return out;
        const std::span<const std::uint8_t> fovealSpan(encoded.data.data() + pos,
                                                       fovealLen);
        const std::span<const std::uint8_t> poseSpan(
            encoded.data.data() + pos + fovealLen,
            encoded.data.size() - pos - fovealLen);

        std::optional<body::Pose> pose;
        if (options_.compress) {
            const auto payload = compress::codec2Decode(poseSpan);
            if (payload) pose = body::deserializePose(*payload);
        } else {
            pose = body::deserializePose(poseSpan);
        }
        if (!pose) return out;

        // Peripheral reconstruction at reduced resolution (the paper's
        // "keypoints for only peripheral regions").
        recon::ReconstructionOptions ro;
        ro.resolution = options_.peripheralResolution;
        ro.shape = options_.shape;
        ro.device = recon::DeviceProfile::host();
        auto peripheral = recon::reconstructFromPose(*pose, ro);
        if (!peripheral.success) return out;
        out.mesh = std::move(peripheral.mesh);
        copyReconStats(peripheral, out);

        // Graft the full-quality foveal mesh (seam blending is the open
        // challenge the paper notes; we overlay).
        if (fovealLen > 0) {
            auto foveal = compress::decodeMesh(fovealSpan);
            if (!foveal) return out;
            out.mesh.append(*foveal);
        }
        out.valid = true;
        out.measuredReconMs = msSince(t0);
        return out;
    }

private:
    FoveatedOptions options_;
};

// Synthetic cost-model channel: deterministic payload, configurable
// simulated stage costs, no geometry. The payload is a repeating pattern
// seeded by the frame id so byte-identity tests compare real content.
class SyntheticChannel final : public SemanticChannel {
public:
    explicit SyntheticChannel(const SyntheticChannelOptions& options)
        : options_(options) {}

    std::string name() const override { return "synthetic"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        std::size_t bytes = options_.payloadBytes;
        if (options_.rateAdaptive && frame.estimatedBandwidthBps > 0.0 &&
            options_.fps > 0.0) {
            const auto budget = static_cast<std::size_t>(
                frame.estimatedBandwidthBps / 8.0 / options_.fps);
            bytes = std::min(bytes, budget);
        }
        bytes = std::max(bytes, options_.minBytes);
        out.data.resize(bytes);
        for (std::size_t i = 0; i < bytes; ++i)
            out.data[i] = static_cast<std::uint8_t>(
                (out.frameId * 131u + static_cast<std::uint32_t>(i)) & 0xFF);
        out.simulatedExtractMs = options_.simulatedExtractMs;
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        out.valid = !encoded.data.empty();
        out.simulatedReconMs = options_.simulatedReconMs;
        return out;
    }

private:
    SyntheticChannelOptions options_;
};

}  // namespace

mesh::TriMesh FrameContext::groundTruth() const {
    return model != nullptr ? model->deform(pose) : mesh::TriMesh{};
}

std::unique_ptr<SemanticChannel> makeTraditionalChannel(
    const TraditionalOptions& options) {
    return std::make_unique<TraditionalChannel>(options);
}

std::unique_ptr<SemanticChannel> makeKeypointChannel(
    const KeypointChannelOptions& options) {
    return std::make_unique<KeypointChannel>(options);
}

std::unique_ptr<SemanticChannel> makeTextChannel(const TextChannelOptions& options) {
    return std::make_unique<TextChannel>(options);
}

std::unique_ptr<SemanticChannel> makeFoveatedChannel(const FoveatedOptions& options) {
    return std::make_unique<FoveatedChannel>(options);
}

std::unique_ptr<SemanticChannel> makeSyntheticChannel(
    const SyntheticChannelOptions& options) {
    return std::make_unique<SyntheticChannel>(options);
}

}  // namespace semholo::core
