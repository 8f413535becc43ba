// The SemHolo public API: semantic communication channels.
//
// A channel implements one column of the paper's Figure 1 pipeline: it
// turns the sender's captured state into a wire payload (semantic
// extraction + compression) and turns received payloads back into
// renderable content (reconstruction). Four semantic channels are
// provided — traditional (mesh), keypoint, text, image/NeRF — plus the
// foveated hybrid of section 3.1.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/capture/image.hpp"
#include "semholo/compress/codec2.hpp"
#include "semholo/gaze/gaze.hpp"
#include "semholo/geometry/transform.hpp"
#include "semholo/mesh/trimesh.hpp"
#include "semholo/textsem/captioner.hpp"

namespace semholo::core {

// Everything the sender-side pipeline knows about one captured frame.
struct FrameContext {
    body::Pose pose;                     // aligned ground-truth pose
    const body::BodyModel* model{};      // subject template (session constant)
    double timestamp{0.0};
    // Receiver-side viewing state, fed back to the sender for foveated
    // and rate-adaptive channels.
    geom::RigidTransform viewerHead{};
    gaze::Vec2f viewerGazeDeg{};
    // Eye-movement classification of the current gaze sample and, during
    // a saccade, the predicted landing position (section 3.1: exploit
    // saccadic omission and aim the foveal region at the landing point).
    gaze::EyeMovement viewerGazeState{gaze::EyeMovement::Fixation};
    gaze::Vec2f viewerPredictedLandingDeg{};
    // Receiver throughput feedback (bps); 0 when no estimate yet. Rate-
    // adaptive channels pick their quality level from this. When the
    // session's DegradationPolicy is enabled, the engine pre-scales this
    // value down under sustained congestion or injected link faults, so
    // channels step down their ladder without any policy awareness.
    double estimatedBandwidthBps{0.0};

    // Ground-truth capture mesh for this frame (LBS-deformed template).
    mesh::TriMesh groundTruth() const;
};

struct EncodedFrame {
    std::uint32_t frameId{};
    std::vector<std::uint8_t> data;
    // Measured wall time of extraction+encoding on this host.
    double measuredExtractMs{0.0};
    // Simulated DL inference time where the real system would run a
    // model we replaced (detectors, captioners); 0 when not applicable.
    double simulatedExtractMs{0.0};
    double extractMs() const { return measuredExtractMs + simulatedExtractMs; }
    std::size_t bytes() const { return data.size(); }
};

struct DecodedFrame {
    bool valid{false};
    std::uint32_t frameId{};
    mesh::TriMesh mesh;             // empty for image-semantics output
    capture::RGBImage view;         // rendered novel view (image channel)
    double measuredReconMs{0.0};
    double simulatedReconMs{0.0};
    double reconMs() const { return measuredReconMs + simulatedReconMs; }
    // Sparse-reconstruction work accounting, copied from the
    // reconstructor's stats by mesh-producing channels (all zero on dense
    // or image-only decode paths). Aggregated into telemetry counters.
    std::uint64_t reconBlocksSkipped{0};
    std::uint64_t reconBlocksCached{0};
    std::uint64_t reconBonesBlended{0};
    std::uint64_t reconBonesPruned{0};
    std::uint64_t reconBonesCulled{0};
    std::uint64_t reconNodesEvaluated{0};
    std::uint64_t reconCertTests{0};
    std::uint64_t reconActiveCells{0};
    std::uint64_t reconReusedTopologyBlocks{0};
    // The reconstruction's measured field-sampling / extraction split
    // (wall time on this host; zero when the decode ran no
    // reconstruction). Never part of a byte-identity digest.
    double reconFieldMs{0.0};
    double reconExtractMs{0.0};
};

class SemanticChannel {
public:
    virtual ~SemanticChannel() = default;
    virtual std::string name() const = 0;
    virtual EncodedFrame encode(const FrameContext& frame) = 0;
    virtual DecodedFrame decode(const EncodedFrame& encoded) = 0;
    // Reset per-session state (delta history, NeRF weights...), leaving
    // the channel as if freshly constructed.
    //
    // Contract: the session engine (runSession / runConference, at any
    // worker count) invokes reset() once before a channel's first
    // frame, so a channel instance may be reused across sessions without
    // the caller constructing a fresh one. Stateful channels MUST
    // implement this; stateless channels inherit the no-op.
    virtual void reset() {}
};

// ---- Data-driven channel registry ----------------------------------------
//
// One spec describes any channel the framework provides, so sweeps and
// config files iterate over data instead of hand-wired factory calls:
//
//     core::ChannelSpec spec{"keypoint", {{"reconResolution", 24}}};
//     auto channel = core::makeChannel(spec);
//
// 'kind' is one of listChannelKinds(); 'params' maps option-struct field
// names to numeric values (booleans as 0/1), with unset keys taking the
// option struct's default. makeChannel throws std::invalid_argument on
// an unknown kind or an unknown param key (catching sweep typos early).
// The typed factories below remain as thin wrappers over the same
// implementations.

struct ChannelSpec {
    std::string kind;
    std::map<std::string, double> params;
};

// Registered kinds: "adaptive-mesh", "foveated", "image", "keypoint",
// "synthetic", "text", "traditional", "vector" (stable, sorted).
std::vector<std::string> listChannelKinds();

// Accepted param keys for one kind (throws on unknown kind).
std::vector<std::string> listChannelParams(const std::string& kind);

// Build a channel from a spec. 'model' is required by model-bound kinds
// (currently "vector", which learns its PCA basis from the subject);
// other kinds ignore it.
std::unique_ptr<SemanticChannel> makeChannel(const ChannelSpec& spec,
                                             const body::BodyModel* model = nullptr);

// ---- Channel factories -------------------------------------------------

struct TraditionalOptions {
    bool compress{true};   // Draco-class codec vs raw geometry
    bool withColors{false};
};
std::unique_ptr<SemanticChannel> makeTraditionalChannel(
    const TraditionalOptions& options = {});

struct KeypointChannelOptions {
    int reconResolution{64};
    bool compressPayload{true};  // codec v2 over the 1.91 KB pose payload
    // Filter chain + entropy backend for the pose payload. The container
    // self-describes, so the decode side needs no matching options.
    compress::Codec2Options codec = compress::poseCodecDefaults();
    body::ShapeParams shape{};
    // Simulated DL extraction latency added per frame (direct RGB-D
    // detection path; see capture::DetectorCostModel).
    double simulatedDetectMs{1.8};
};
std::unique_ptr<SemanticChannel> makeKeypointChannel(
    const KeypointChannelOptions& options = {});

struct TextChannelOptions {
    int reconResolution{48};
    textsem::CaptionOptions caption{};
    body::ShapeParams shape{};
    textsem::TextCostModel cost{};
    // Reconstruct geometry on decode (off when only byte counts matter).
    bool reconstructMesh{true};
};
std::unique_ptr<SemanticChannel> makeTextChannel(const TextChannelOptions& options = {});

struct ImageChannelOptions {
    // Sender-side camera ring and image resolution (the rate-adaptation
    // knob of section 3.2; width fraction of the slimmable field tracks
    // the resolution level).
    int viewCount{3};
    int imageWidth{32};
    int imageHeight{24};
    float nerfWidthFraction{1.0f};
    int pretrainSteps{150};       // cold-start session (first frame)
    int fineTuneSteps{15};        // per-frame continuous training
    float cameraRadius{2.6f};
    float fovY{0.8f};
    std::uint64_t seed{5};
};
// The image channel keeps receiver-side NeRF state across frames (cold
// start + fine-tune); construct one per session.
std::unique_ptr<SemanticChannel> makeImageChannel(const ImageChannelOptions& options = {});

struct FoveatedOptions {
    double fovealRadiusDeg{7.5};
    int peripheralResolution{32};
    body::ShapeParams shape{};
    bool compress{true};
    // Codec v2 pipeline for the peripheral pose payload (self-describing
    // container; see KeypointChannelOptions::codec).
    compress::Codec2Options codec = compress::poseCodecDefaults();
    // Saccadic omission (section 3.1): during a saccade vision is
    // suppressed, so the foveal mesh is omitted entirely (keypoints
    // only) and the *next* foveal region is aimed at the predicted
    // saccade landing position instead of the current gaze.
    bool saccadicOmission{true};
};
std::unique_ptr<SemanticChannel> makeFoveatedChannel(const FoveatedOptions& options = {});

// Rate-adaptive traditional channel: a level-of-detail ladder built with
// quadric-error-metric simplification; each frame picks the highest LOD
// the receiver-reported throughput sustains (rate-based ABR). This is
// what "optimising traditional delivery" (section 2.1, ViVo/GROOT-style
// adaptation) looks like in our framework — the strongest fair baseline
// for the semantic channels.
struct AdaptiveMeshOptions {
    // Triangle budgets of the LOD ladder, ascending quality.
    std::vector<std::size_t> ladderTriangles{1000, 4000, 12000, 50000};
    double fps{30.0};     // used to convert bytes/frame to a bitrate
    double safety{0.9};   // ABR safety margin
};
std::unique_ptr<SemanticChannel> makeAdaptiveMeshChannel(
    const AdaptiveMeshOptions& options = {});

// Vector semantics (section 2.2's related-work baseline, Zhu et al.):
// a linear autoencoder over the subject's mesh. The "encoder" projects
// the deformed mesh onto a PCA basis fitted offline to a training
// motion; the latent vector is the payload. The paper dismisses this
// family for limited compression ratio and poor visual quality — the
// vector-semantics ablation quantifies exactly that (in-distribution it
// works, out-of-distribution articulation breaks it).
struct VectorChannelOptions {
    int latentDim{64};
    std::size_t trainingFrames{90};
    body::MotionKind trainingMotion{body::MotionKind::Talk};
    std::uint32_t trainingSeed{1};
};
// The channel learns its basis from 'model' at construction; sessions
// must use the same model instance.
std::unique_ptr<SemanticChannel> makeVectorChannel(const body::BodyModel& model,
                                                   const VectorChannelOptions& options = {});

// Synthetic cost-model channel: a deterministic payload of 'payloadBytes'
// with configurable *simulated* encode/decode stage costs and no real
// extraction or reconstruction. Exists for scheduler studies — straggler
// scenarios mixing encode-heavy and decode-heavy participants exercise
// the conference stage graph without geometry work dominating the run.
// With rateAdaptive set, the payload shrinks to fit the reported
// bandwidth estimate (bytes = min(payloadBytes, est / 8 / fps), floored
// at minBytes), so degradation ladders and arbiter targets still bite.
struct SyntheticChannelOptions {
    std::size_t payloadBytes{4096};
    double simulatedExtractMs{2.0};
    double simulatedReconMs{2.0};
    bool rateAdaptive{true};
    double fps{30.0};
    std::size_t minBytes{64};
};
std::unique_ptr<SemanticChannel> makeSyntheticChannel(
    const SyntheticChannelOptions& options = {});

}  // namespace semholo::core
