// End-to-end telepresence session: sender pipeline -> simulated Internet
// path -> receiver pipeline, per-frame accounting of every Figure 1
// stage, and (optionally sampled) reconstruction quality against the
// ground-truth capture mesh.
//
// One engine runs every session: a completion-event-driven stage graph
// (encode -> sequenced uplink ticket -> downlink fan-out -> decode ->
// sampled quality eval per user and tick, with explicit dependency
// edges). runSession is a one-participant conference on its own uplink
// with no downlinks and no arbiter; runConference
// (semholo/core/conference.hpp) is the N-participant SFU. Every
// participant's throughput estimator and DegradationPolicy observe their
// own link outcomes before their next tick encodes — the closed loop of
// the paper's semantic coordinator — while users whose feedback already
// landed may pipeline ahead of stragglers up to
// ConferenceConfig::pipelineDepth ticks. With workers == 1 the nodes run
// in order on the calling thread; otherwise they run over a worker pool
// the moment their dependencies complete.
//
// With TimingModel::Simulated the pipeline clock is fully deterministic,
// so `workers=1` and `workers=N` produce byte-identical per-frame
// bytes/delivered/dropped sequences (see tests/core/test_parallel_session).
#pragma once

#include <limits>

#include "semholo/body/animation.hpp"
#include "semholo/core/channel.hpp"
#include "semholo/core/degradation.hpp"
#include "semholo/core/telemetry.hpp"
#include "semholo/net/simulator.hpp"

namespace semholo::core {

// What advances the pipeline availability clocks (extractor/recon busy
// times, link send times).
enum class TimingModel {
    // Measured wall time + simulated DL inference time (legacy). Wall
    // time varies run to run, so drop decisions and link timings are
    // only statistically reproducible.
    Measured,
    // Only the simulated (deterministic) stage costs drive the clocks;
    // measured wall time is still *reported* in FrameStats/telemetry but
    // never influences scheduling. Use for determinism tests and for
    // comparing engines bit-for-bit.
    Simulated,
};

struct SessionConfig {
    double fps{30.0};
    std::size_t frames{60};
    net::LinkConfig link{};
    net::TransferOptions transfer{};
    body::MotionKind motion{body::MotionKind::Talk};
    std::uint32_t motionSeed{1};
    // Evaluate decoded-mesh quality vs ground truth every N frames
    // (0 = never; quality evaluation costs mesh sampling time).
    std::size_t qualityEvalInterval{0};
    std::size_t qualitySamples{6000};
    // Viewer state fed to gaze-aware channels.
    geom::RigidTransform viewerHead{geom::Quat::identity(), {0.0f, 0.2f, -2.5f}};
    // Sender extraction and receiver reconstruction are single pipeline
    // stages: when true, a frame that arrives while its stage is still
    // busy with an earlier frame is dropped (live-streaming behaviour);
    // when false, frames queue and latency grows without bound for
    // stages slower than the frame interval.
    bool dropWhenBusy{true};
    // Worker threads of the stage-graph executor: 0 = hardware
    // concurrency, 1 = nodes run in order on the calling thread.
    std::size_t workers{0};
    TimingModel timing{TimingModel::Measured};
    // Closed-loop graceful degradation: when enabled, the engine runs a
    // DegradationPolicy over each frame's link outcome and scales the
    // bandwidth estimate fed to rate-adaptive channels, stepping quality
    // down under sustained congestion or injected faults and back up on
    // recovery. Transitions land in telemetry (counters.degradations /
    // upgrades). Multi-user sessions run one independent policy (and one
    // throughput estimator) per participant: the tick scheduler carries
    // each capture tick's messages over the shared link before any user
    // encodes the next tick, so each user observes their own link
    // outcomes — per-user closed-loop adaptation over a shared
    // bottleneck. Per-user transitions land in that user's telemetry and
    // in MultiSessionStats::fairness.
    DegradationConfig degradation{};
};

struct FrameStats {
    std::uint32_t frameId{};
    std::size_t bytes{};
    double extractMs{};    // measured + simulated sender inference
    double transferMs{};   // network (queue + serialisation + propagation)
    double reconMs{};      // measured + simulated receiver inference
    double e2eMs{};        // capture-to-render
    double qualityMs{};    // Chamfer-eval wall time (0 when not evaluated)
    bool delivered{false};
    bool decoded{false};
    bool droppedAtSender{false};    // extractor still busy at capture time
    bool droppedAtReceiver{false};  // reconstructor still busy at arrival
    // Chamfer distance vs ground truth when evaluated, NaN otherwise.
    double chamfer{std::numeric_limits<double>::quiet_NaN()};
    // Sparse-reconstruction work accounting for this frame's decode (all
    // zero on dense or image-only channels); summed into the session
    // telemetry counters.
    std::uint64_t reconBlocksSkipped{};
    std::uint64_t reconBlocksCached{};
    std::uint64_t reconBonesBlended{};
    std::uint64_t reconBonesPruned{};
    std::uint64_t reconBonesCulled{};
    std::uint64_t reconNodesEvaluated{};
    std::uint64_t reconCertTests{};
    std::uint64_t reconActiveCells{};
    std::uint64_t reconReusedTopologyBlocks{};
    // Measured field-sampling / extraction split of that decode (wall
    // time, zero without a reconstruction); recorded into the telemetry
    // histograms, never into a byte-identity digest.
    double reconFieldMs{};
    double reconExtractMs{};
};

struct SessionStats {
    std::vector<FrameStats> frames;

    std::size_t deliveredFrames{};
    std::size_t decodedFrames{};
    std::size_t droppedSenderFrames{};
    std::size_t droppedReceiverFrames{};
    double meanBytesPerFrame{};
    double bandwidthMbps{};       // meanBytes * 8 * fps / 1e6
    double meanExtractMs{};
    double meanTransferMs{};
    double meanReconMs{};
    double meanE2eMs{};
    double p95E2eMs{};
    // Pipeline-limited frame rate: 1000 / mean(max(extract, recon)) —
    // stages pipeline across frames, so the slower stage bounds FPS.
    double achievableFps{};
    // Mean Chamfer over evaluated frames (NaN when never evaluated).
    double meanChamfer{std::numeric_limits<double>::quiet_NaN()};
    // Per-stage wall-time histograms (p50/p95/p99), drop/retransmission
    // counters, and bottleneck queue-depth samples for this session.
    telemetry::SessionTelemetry telemetry;
};

// Run a one-way session (site A captures, site B renders) as a
// one-participant conference: 'channel' on its own uplink built from
// config.link, no downlinks, no arbiter, the default pipeline depth.
// Calls channel.reset() before the first frame.
SessionStats runSession(SemanticChannel& channel, const body::BodyModel& model,
                        const SessionConfig& config);

// ---- Multi-user sessions -------------------------------------------------
//
// Conferences (runConference, semholo/core/conference.hpp) run N
// participants, by default through one shared bottleneck (the conference-
// server model of the multi-user volumetric delivery literature the
// paper builds on). Every user runs their own channel instance and
// motion seed; their frames interleave on the shared link in capture
// order, so heavy channels congest each other, and each user's
// throughput estimator and DegradationPolicy observe their own link
// outcomes before that user's next encode. Under TimingModel::Simulated
// runs are byte-identical at any worker count.

// Per-participant fairness accounting for one multi-user session: how
// delivery, bandwidth and the degradation ladder were shared.
struct UserFairnessStats {
    std::size_t user{};
    std::size_t capturedFrames{};
    std::size_t deliveredFrames{};
    // deliveredFrames / capturedFrames (0 when no frames captured).
    double deliveryRatio{};
    double bandwidthMbps{};
    // This user's fraction of all wire bytes across the conference
    // (0 when nothing was sent).
    double bandwidthShare{};
    double meanE2eMs{};
    std::uint64_t degradations{};
    std::uint64_t upgrades{};
    // Ladder level in effect when the session ended (0 = full quality).
    std::size_t finalDegradationLevel{};
    // Mean BandwidthArbiter target over the session (0 when no arbiter
    // ran): the uplink rate the conference server asked this user to
    // hold.
    double targetRateMbps{};
};

// ---- SFU downlink accounting ---------------------------------------------
//
// When a conference runs with downlinks enabled (runConference,
// semholo/core/conference.hpp), the server fans each delivered uplink
// frame back out to every subscribed viewer. One DownlinkStats per
// viewer, one DownlinkStreamStats per (viewer, source) subscription.

struct DownlinkStreamStats {
    std::size_t source{};              // publishing participant
    std::size_t framesForwarded{};     // frames the server put on this downlink
    std::size_t framesDelivered{};     // forwarded frames that arrived
    std::uint64_t bytesForwarded{};    // wire bytes the server forwarded
    std::uint64_t bytesDelivered{};    // wire bytes that arrived
    std::uint64_t packets{};
    std::uint64_t packetsDelivered{};
    std::uint64_t packetsUnrecovered{};
};

struct DownlinkStats {
    std::size_t viewer{};
    // Totals across this viewer's subscribed streams (sums of 'streams').
    std::size_t framesForwarded{};
    std::size_t framesDelivered{};
    std::uint64_t bytesForwarded{};
    std::uint64_t bytesDelivered{};
    std::uint64_t packets{};
    std::uint64_t packetsDelivered{};
    std::uint64_t packetsUnrecovered{};
    // This viewer's fraction of all bytes the server fanned out.
    double fanoutShare{};
    double meanTransferMs{};
    std::vector<DownlinkStreamStats> streams;
};

// ---- Stage-graph pipeline telemetry ----------------------------------------
//
// The conference engine executes as a completion-event-driven stage graph
// (see DESIGN.md "Event-driven conference stage graph"): every per-user
// frame is a chain of nodes (encode -> uplink ticket -> downlink fan-out
// -> decode) with explicit dependency edges, and a retire node per tick
// bounds how many ticks may be in flight (ConferenceConfig::pipelineDepth).
// These stats describe how deep the pipeline actually ran and what the
// event-driven schedule bought over the legacy per-tick barrier.

struct PipelineStageStats {
    std::string stage;  // "arbiter" | "encode" | "uplink" | "downlink" |
                        // "decode" | "quality" | "retire"
    std::uint64_t nodes{};
    // Sum of node-body wall time (ms) spent in this stage.
    double busyMs{};
    // Peak number of this stage's nodes executing concurrently (1 for the
    // serial executor and for sequenced stages such as the uplink tickets).
    std::size_t maxConcurrent{};
    // Wall latency (ms) from a node's last dependency completing to the
    // node starting — queueing delay in the worker pool (0 when a node
    // starts the instant it is released).
    telemetry::Histogram releaseLatencyMs;
};

struct PipelineStats {
    // false: nodes ran in insertion order on the calling thread (serial
    // engine). true: nodes ran event-driven over the worker pool.
    bool eventDriven{false};
    std::size_t workers{1};
    std::size_t pipelineDepth{1};
    std::uint64_t nodes{};
    std::uint64_t edges{};
    // Peak capture ticks simultaneously in flight (bounded by
    // pipelineDepth); sampled at each encode-node release.
    std::size_t maxTicksInFlight{};
    telemetry::Histogram ticksInFlight;
    double wallMs{};  // wall time of the graph run itself
    // Deterministic list-schedule makespans over the recorded per-node
    // simulated stage costs at 'workers' workers: the event-driven DAG
    // schedule vs the legacy three-phase tick barrier on the *same*
    // workload. Pure functions of (graph, costs, workers), so the
    // speedup is runner-independent and CI-gateable.
    double simulatedStageGraphMs{};
    double simulatedBarrierMs{};
    double simulatedSpeedup{1.0};   // barrier / stage-graph
    double simulatedIdleMs{};        // workers*makespan - total cost (DAG)
    double simulatedBarrierIdleMs{}; // same, for the barrier schedule
    std::vector<PipelineStageStats> stages;
};

struct MultiSessionStats {
    std::vector<SessionStats> perUser;
    double aggregateMbps{};
    double meanE2eMs{};
    // Per-user fairness accounting (delivery ratio, bandwidth share,
    // degradation transitions), one entry per participant.
    std::vector<UserFairnessStats> fairness;
    // Jain's fairness index over per-user delivery ratios: 1 when every
    // participant gets the same delivery ratio, -> 1/N under starvation.
    double fairnessIndex{1.0};
    // Per-viewer downlink fan-out accounting; empty when the conference
    // ran without downlinks. sum(downlinks[v].bytesForwarded) ==
    // serverFanoutBytes.
    std::vector<DownlinkStats> downlinks;
    std::uint64_t serverFanoutFrames{};
    std::uint64_t serverFanoutBytes{};
    // Merged per-user telemetry plus the shared link's packet/queue
    // counters and queue-depth histogram. Link counters are attributed
    // per user (perUser[u].telemetry) by the link's senderTag and merged
    // here, so the totals equal the shared link's totals.
    telemetry::SessionTelemetry telemetry;
    // Stage-graph execution telemetry: node/edge counts, per-stage
    // occupancy and release latency, pipeline depth actually used, and
    // the deterministic stage-graph vs tick-barrier schedule comparison.
    PipelineStats pipeline;
    // Users whose mean end-to-end latency meets 'budgetMs'.
    std::size_t usersWithinLatency(double budgetMs) const;
};

// ---- JSON export ---------------------------------------------------------
//
// Every stats exporter follows one convention: a free toJsonValue(T)
// returning one JSON value as std::string, composable into larger bench
// documents via telemetry::JsonWriter::raw (the member
// SessionTelemetry::toJson survives only as a legacy alias of
// telemetry::toJsonValue).

// Aggregate figures plus the embedded telemetry for one session / one
// conference participant.
std::string toJsonValue(const SessionStats& stats);

// Aggregate figures, the per-user fairness array, the per-viewer
// downlink fan-out (when present), and the merged telemetry.
std::string toJsonValue(const MultiSessionStats& stats);

}  // namespace semholo::core
