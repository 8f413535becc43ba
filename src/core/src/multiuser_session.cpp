// The session engine: a completion-event-driven stage graph that runs
// every session, from a single-user runSession (a one-participant
// conference on its own uplink, no downlinks, no arbiter) to an SFU
// conference. The legacy engine ran each capture tick as three
// barriered phases (encode fan-out, sequenced uplink, decode fan-out);
// this engine builds one explicit dependency DAG over typed
// per-(tick, user) nodes and lets an event-driven executor run every
// node the instant its dependencies complete — no phase barriers, no
// tick barriers.
//
// Node kinds per tick f (inserted in exactly the legacy phase order, so
// the serial executor *is* the legacy engine):
//
//   A(f) / A(f,u)  arbiter: per-user uplink target rates from the
//                  bottleneck's instantaneous capacity, offered demands
//                  (last wire frame x fps) and delivered-throughput
//                  history. Shared-uplink mode has one conference-wide
//                  node; per-user uplinks get one node per user.
//   E(f,u)         encode: the user's channel encodes frame f against
//                  their extractor clock and bandwidth feedback.
//   T(f,u)         uplink ticket: the frame traverses the shared
//                  server-ingest bottleneck (or the user's own uplink).
//                  Tickets form a chain — global in shared mode, per
//                  user otherwise — so the (frame, user) link-entry
//                  order, FIFO interleaving and loss RNG draws are
//                  identical for serial and pipelined runs. The outcome
//                  feeds the sender's estimator and DegradationPolicy.
//   L(f,v)         downlink fan-out: the server forwards the tick's
//                  delivered frames to viewer v over v's own downlink,
//                  thinned by v's subscription ladder.
//   D(f,u)         decode: the user decodes their delivered frame,
//                  advances their recon clock and appends the tick's
//                  FrameStats; on sampled ticks it parks the decoded
//                  mesh for Q(f,u).
//   Q(f,u)         quality eval (sampled ticks only): Chamfer of the
//                  parked mesh against the LBS ground truth, written to
//                  a per-frame result slot that is folded into
//                  FrameStats after the run. No encode waits for it, so
//                  it overlaps the user's next ticks.
//   R(f)           retire: join of every D(f,*), Q(f,*) and L(f,*);
//                  recycles the tick's ring slot.
//
// Edges (the full byte-identity argument is in DESIGN.md):
//
//   A(f)   <- T(f-1,*)          targets read last-tick demand/throughput
//   E(f,u) <- A(f[,u]), D(f-1,u), R(f-depth)
//   T(f,u) <- E(f,u), previous ticket in its chain
//   L(f,v) <- T(f,u) per subscribed source, L(f-1,v)
//   D(f,u) <- T(f,u)            (D(f-1,u) order holds transitively)
//   Q(f,u) <- D(f,u)
//   R(f)   <- D(f,*), Q(f,*), L(f,*), R(f-1)
//
// The payoff: a user's tick f+1 encode is released the moment its own
// tick f feedback lands (plus slot retirement), so enc-heavy and
// dec-heavy users de-stagger instead of all waiting for the slowest
// phase member — up to ConferenceConfig::pipelineDepth ticks in flight.
// Every mutable resource (a user's channel/clock/estimator/policy, a
// link's FIFO + RNG, a viewer's downlink, the arbiter inputs) is
// confined to a single dependency chain, so serial (pool == nullptr)
// and event-driven runs are byte-identical under TimingModel::Simulated
// at any worker count and any depth (tests/core/test_conference.cpp and
// test_stage_graph.cpp stress this with downlinks + arbiter).
//
// Uplink messages are attributed to their sender via LinkSimulator's
// senderTag; downlink messages carry (senderTag = source, receiverTag =
// viewer) so per-(viewer, source) stream accounting lands in
// MultiSessionStats::downlinks. Stage occupancy, release latency and
// ticks-in-flight land in MultiSessionStats::pipeline.
#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "semholo/core/conference.hpp"
#include "semholo/core/session.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/net/abr.hpp"
#include "session_internal.hpp"
#include "stage_graph.hpp"

namespace semholo::core::internal {

namespace {

// One user's frame in flight during a tick. Lives in a ring of
// pipelineDepth tick-slots; E(f,u) rewrites it, T(f,u) fills the
// transfer, L/D read it, R(f) retires the slot for tick f+depth.
struct TickFrame {
    FrameStats frame;
    EncodedFrame encoded;
    body::Pose pose;  // retained for receiver-side quality evaluation
    double captureTime{};
    double sendTime{};  // valid when sent
    bool sent{false};
    net::TransferResult transfer;
};

// Q(f,u)'s output: the sampled frame's Chamfer distance and the wall
// time the evaluation took.
struct QualityResult {
    double chamfer{std::numeric_limits<double>::quiet_NaN()};
    double wallMs{0.0};
};

// Per-user state that persists across ticks: the pipeline availability
// clocks and the closed-loop feedback (throughput estimator +
// degradation policy), plus the arbiter's demand estimate and
// target-rate accounting.
struct UserState {
    double extractorFreeAt{0.0};
    double reconFreeAt{0.0};
    net::HarmonicEstimator throughput{5};
    DegradationPolicy degrade;
    std::size_t lastSentBytes{0};  // arbiter demand: offered wire bytes
    double targetRateBps{0.0};     // arbiter target this tick (0 = none)
    double targetSumBps{0.0};
    std::size_t targetTicks{0};

    UserState(const DegradationConfig& config, double fps,
              std::size_t queueCapacityBytes)
        : degrade(config, fps, queueCapacityBytes) {}
};

// Per-viewer downlink state: the viewer's own LinkSimulator, a monotonic
// send clock (uplink completions are unordered across per-user uplinks),
// the resolved subscription list and the per-stream accounting.
struct DownlinkState {
    std::vector<net::LinkSimulator> link;  // 0 or 1 element (stable address)
    double clock{0.0};
    // (source, byteScale) in ascending source order.
    std::vector<std::pair<std::size_t, double>> subs;
    // source -> index into stats.streams (SIZE_MAX when unsubscribed).
    std::vector<std::size_t> streamIndex;
    DownlinkStats stats;
    double transferMsSum{0.0};
};

void fillFairness(MultiSessionStats& out, const std::vector<UserState>& state) {
    const std::size_t users = out.perUser.size();
    double totalBytes = 0.0;
    std::vector<double> userBytes(users, 0.0);
    for (std::size_t u = 0; u < users; ++u) {
        for (const FrameStats& frame : out.perUser[u].frames) {
            if (frame.droppedAtSender) continue;
            userBytes[u] += static_cast<double>(frame.bytes);
        }
        totalBytes += userBytes[u];
    }
    out.fairness.resize(users);
    double ratioSum = 0.0, ratioSqSum = 0.0;
    for (std::size_t u = 0; u < users; ++u) {
        const SessionStats& s = out.perUser[u];
        UserFairnessStats& f = out.fairness[u];
        f.user = u;
        f.capturedFrames = s.frames.size();
        f.deliveredFrames = s.deliveredFrames;
        f.deliveryRatio = f.capturedFrames > 0
                              ? static_cast<double>(f.deliveredFrames) /
                                    static_cast<double>(f.capturedFrames)
                              : 0.0;
        f.bandwidthMbps = s.bandwidthMbps;
        f.bandwidthShare = totalBytes > 0.0 ? userBytes[u] / totalBytes : 0.0;
        f.meanE2eMs = s.meanE2eMs;
        f.degradations = s.telemetry.counters.degradations;
        f.upgrades = s.telemetry.counters.upgrades;
        f.finalDegradationLevel = state[u].degrade.level();
        f.targetRateMbps = state[u].targetTicks > 0
                               ? state[u].targetSumBps /
                                     static_cast<double>(state[u].targetTicks) /
                                     1e6
                               : 0.0;
        ratioSum += f.deliveryRatio;
        ratioSqSum += f.deliveryRatio * f.deliveryRatio;
    }
    // Jain's index over delivery ratios; all-equal (including all-zero)
    // counts as perfectly fair.
    const double denom = static_cast<double>(users) * ratioSqSum;
    out.fairnessIndex = denom > 0.0 ? ratioSum * ratioSum / denom : 1.0;
}

}  // namespace

MultiSessionStats runConferenceTicked(
    const ConferenceConfig& conf, const std::vector<SemanticChannel*>& channels,
    const body::BodyModel& model, ThreadPool* pool) {
    const SessionConfig& base = conf.session;
    MultiSessionStats out;
    const std::size_t users = channels.size();
    out.perUser.resize(users);
    if (users == 0) return out;

    // ---- Uplink topology -------------------------------------------------
    // Shared mode: one server-ingest bottleneck every participant's
    // messages traverse. Per-user mode: each participant's own access
    // link. Either way every message carries its sender as senderTag,
    // and a link's observer only runs inside that link's ticket chain,
    // so the per-user counter writes are sequenced.
    std::vector<net::LinkSimulator> uplinks;
    if (conf.sharedUplink) {
        uplinks.emplace_back(base.link);
    } else {
        uplinks.reserve(users);
        for (std::size_t u = 0; u < users; ++u)
            uplinks.emplace_back(conf.participants[u].uplink.value_or(base.link));
    }
    for (net::LinkSimulator& link : uplinks) observeLink(link, out.perUser);
    const auto uplinkFor = [&](std::size_t u) -> net::LinkSimulator& {
        return conf.sharedUplink ? uplinks[0] : uplinks[u];
    };

    // ---- Per-user session state -------------------------------------------
    std::vector<body::MotionGenerator> motions;
    std::vector<UserState> state;
    std::vector<geom::RigidTransform> heads;
    motions.reserve(users);
    state.reserve(users);
    heads.reserve(users);
    for (std::size_t u = 0; u < users; ++u) {
        const Participant& p = conf.participants[u];
        channels[u]->reset();
        motions.emplace_back(
            base.motion, model.shape(),
            p.motionSeed.value_or(base.motionSeed +
                                  static_cast<std::uint32_t>(u)));
        state.emplace_back(p.degradation.value_or(base.degradation), base.fps,
                           p.uplink && !conf.sharedUplink
                               ? p.uplink->queueCapacityBytes
                               : base.link.queueCapacityBytes);
        heads.push_back(p.viewerHead.value_or(base.viewerHead));
        out.perUser[u].frames.reserve(base.frames);
    }
    const auto degradationFor = [&](std::size_t u) -> const DegradationConfig& {
        return conf.participants[u].degradation ? *conf.participants[u].degradation
                                                : base.degradation;
    };

    // ---- Downlink fan-out state -------------------------------------------
    std::vector<DownlinkState> downs;
    if (conf.enableDownlinks) {
        downs.resize(users);
        for (std::size_t v = 0; v < users; ++v) {
            const Participant& p = conf.participants[v];
            DownlinkState& d = downs[v];
            d.link.emplace_back(p.downlink.value_or(conf.downlink));
            d.stats.viewer = v;
            d.streamIndex.assign(users, std::numeric_limits<std::size_t>::max());
            std::size_t position = 0;
            for (std::size_t u = 0; u < users; ++u) {
                if (u == v) continue;
                const auto scale = p.subscription.scaleForPosition(position++);
                if (!scale) continue;
                d.streamIndex[u] = d.subs.size();
                d.subs.emplace_back(u, *scale);
                DownlinkStreamStats ss;
                ss.source = u;
                d.stats.streams.push_back(ss);
            }
        }
    }

    // ---- Arbiter ----------------------------------------------------------
    const bool arbiterOn = conf.arbiter.strategy != ArbiterStrategy::None;
    const BandwidthArbiter arbiter(conf.arbiter);
    std::vector<double> demands(users, 0.0), meanTp(users, 0.0);

    // ---- Stage bodies ------------------------------------------------------
    // Each body captures the tick index and ring slot by value and every
    // engine resource by reference; the graph edges built below are what
    // make the captured-by-reference state race-free.
    const std::size_t depth = std::max<std::size_t>(1, conf.pipelineDepth);
    std::vector<std::vector<TickFrame>> ring(depth,
                                             std::vector<TickFrame>(users));
    // Sampled quality evaluation: D(f,u) parks the decoded mesh in its
    // tick slot, Q(f,u) scores it into quality[u][f].
    const std::size_t qualityInterval = base.qualityEvalInterval;
    std::vector<std::vector<mesh::TriMesh>> parkedMeshes(
        qualityInterval > 0 ? depth : 0, std::vector<mesh::TriMesh>(users));
    std::vector<std::vector<QualityResult>> quality(
        users, std::vector<QualityResult>(qualityInterval > 0 ? base.frames : 0));

    const auto arbiterSharedBody = [&](double captureTime) {
        const double capacity = uplinks[0].effectiveRateAt(captureTime);
        for (std::size_t u = 0; u < users; ++u) {
            demands[u] = state[u].lastSentBytes > 0
                             ? static_cast<double>(state[u].lastSentBytes) *
                                   8.0 * base.fps
                             : 0.0;
            meanTp[u] = state[u].throughput.hasEstimate()
                            ? state[u].throughput.estimate()
                            : 0.0;
        }
        const std::vector<double> targets =
            arbiter.allocate(capacity, demands, meanTp);
        for (std::size_t u = 0; u < users; ++u) {
            state[u].targetRateBps = targets[u];
            state[u].degrade.setTargetRateBps(targets[u]);
            state[u].targetSumBps += targets[u];
            ++state[u].targetTicks;
        }
        return 0.0;
    };

    // Independent uplinks: each user's target is their own link's
    // instantaneous capacity with the safety margin.
    const auto arbiterUserBody = [&](std::size_t u, double captureTime) {
        const double target =
            std::max(conf.arbiter.minRateBps,
                     uplinkFor(u).effectiveRateAt(captureTime) *
                         conf.arbiter.safety);
        state[u].targetRateBps = target;
        state[u].degrade.setTargetRateBps(target);
        state[u].targetSumBps += target;
        ++state[u].targetTicks;
        return 0.0;
    };

    // Encode: touches only this user's channel, motion generator, clocks
    // and feedback state, plus the (retired) ring slot it rewrites.
    const auto encodeBody = [&](std::size_t f, std::size_t slot, std::size_t u,
                                double captureTime) {
        TickFrame& p = ring[slot][u];
        p = TickFrame{};
        p.captureTime = captureTime;
        p.frame.frameId = static_cast<std::uint32_t>(f);
        UserState& us = state[u];
        if (base.dropWhenBusy && us.extractorFreeAt > captureTime) {
            p.frame.droppedAtSender = true;
            return 0.0;
        }
        FrameContext ctx;
        ctx.pose = motions[u].poseAt(captureTime);
        ctx.pose.frameId = p.frame.frameId;
        ctx.model = &model;
        ctx.timestamp = captureTime;
        ctx.viewerHead = heads[u];
        // Bandwidth feedback: the throughput estimate, capped at the
        // arbiter's target when one is set (the target alone seeds the
        // loop before the first sample — rate-adaptive channels start at
        // their share instead of blasting the top rung).
        double est =
            us.throughput.hasEstimate() ? us.throughput.estimate() : 0.0;
        if (us.targetRateBps > 0.0)
            est = est > 0.0 ? std::min(est, us.targetRateBps)
                            : us.targetRateBps;
        if (est > 0.0)
            ctx.estimatedBandwidthBps = est * us.degrade.bandwidthScale();
        p.encoded = channels[u]->encode(ctx);
        p.pose = std::move(ctx.pose);
        p.frame.bytes = p.encoded.bytes();
        p.frame.extractMs = p.encoded.extractMs();
        const double stageMs = clockExtractMs(p.encoded, base.timing);
        p.sendTime = std::max(captureTime, us.extractorFreeAt) + stageMs / 1000.0;
        us.extractorFreeAt = p.sendTime;
        p.sent = true;
        return stageMs;
    };

    // Uplink ticket: the sequenced link stage. Runs inside its link's
    // ticket chain, so FIFO queueing, loss RNG draws and congestion see
    // the same (frame, user) entry order at any worker count; the
    // outcome feeds this user's estimator and degradation policy before
    // their next encode is released.
    const auto uplinkBody = [&](std::size_t slot, std::size_t u) {
        TickFrame& p = ring[slot][u];
        if (!p.sent) return 0.0;
        UserState& us = state[u];
        net::LinkSimulator& link = uplinkFor(u);
        const std::size_t queuedAtSend = degradationFor(u).enabled || arbiterOn
                                             ? link.queuedBytesAt(p.sendTime)
                                             : 0;
        p.transfer =
            link.sendMessage(p.frame.bytes, p.sendTime, base.transfer, u);
        p.frame.delivered = p.transfer.delivered;
        p.frame.transferMs = p.transfer.durationS() * 1000.0;
        us.lastSentBytes = p.frame.bytes;
        if (p.transfer.delivered && p.frame.bytes > 0) {
            // Serialization-dominated throughput sample (propagation
            // subtracted) so small payloads do not bias the estimate low.
            const double serialS =
                std::max(1e-5, p.transfer.durationS() -
                                   link.config().propagationDelayS);
            us.throughput.addSample(static_cast<double>(p.frame.bytes) * 8.0 /
                                    serialS);
        }
        if (degradationFor(u).enabled) {
            const DegradationAction action = us.degrade.observe(
                p.frame.frameId,
                {p.transfer.delivered, p.transfer.durationS(),
                 p.transfer.unrecoveredPackets, p.transfer.droppedAtQueue,
                 p.transfer.faultEvents, queuedAtSend, p.frame.bytes});
            if (action == DegradationAction::StepDown)
                ++out.perUser[u].telemetry.counters.degradations;
            else if (action == DegradationAction::StepUp)
                ++out.perUser[u].telemetry.counters.upgrades;
        }
        return 0.0;
    };

    // Downlink fan-out for one viewer: reads the tick's uplink results
    // (read-only — decode also reads them, concurrently), writes only
    // viewer-local state.
    const auto downlinkBody = [&](std::size_t slot, std::size_t v) {
        DownlinkState& d = downs[v];
        for (const auto& [u, scale] : d.subs) {
            const TickFrame& p = ring[slot][u];
            if (!p.sent || !p.transfer.delivered) continue;
            const auto bytes = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       static_cast<double>(p.frame.bytes) * scale));
            // Forward when the server received the frame; the clock
            // keeps per-viewer send times monotonic (per-user uplinks
            // complete out of user order).
            const double at = std::max(p.transfer.completionTime, d.clock);
            const net::TransferResult r =
                d.link[0].sendMessage(bytes, at, base.transfer, u, v);
            d.clock = at;
            DownlinkStreamStats& ss = d.stats.streams[d.streamIndex[u]];
            ++ss.framesForwarded;
            ss.bytesForwarded += bytes;
            ss.packets += r.packets;
            ss.packetsDelivered += r.deliveredPackets;
            ss.packetsUnrecovered += r.unrecoveredPackets;
            if (r.delivered) {
                ++ss.framesDelivered;
                ss.bytesDelivered += bytes;
            }
            d.transferMsSum += r.durationS() * 1000.0;
        }
        return 0.0;
    };

    // Decode: reads the ring slot (never writes it — the downlink nodes
    // of the same tick may still be reading), advances this user's recon
    // clock and (when sampled) parks the decoded mesh for Q(f,u).
    const auto decodeBody = [&](std::size_t f, std::size_t slot,
                                std::size_t u) {
        const TickFrame& p = ring[slot][u];
        SessionStats& s = out.perUser[u];
        FrameStats frame = p.frame;
        if (frame.droppedAtSender) {
            s.frames.push_back(std::move(frame));
            return 0.0;
        }
        UserState& us = state[u];
        double stageMs = 0.0;
        if (p.transfer.delivered) {
            const double arrival = p.transfer.completionTime;
            if (base.dropWhenBusy && us.reconFreeAt > arrival) {
                frame.droppedAtReceiver = true;
            } else {
                DecodedFrame decoded = channels[u]->decode(p.encoded);
                frame.decoded = decoded.valid;
                frame.reconMs = decoded.reconMs();
                copyReconCounters(frame, decoded);
                stageMs = clockReconMs(decoded, base.timing);
                const double renderTime =
                    std::max(arrival, us.reconFreeAt) + stageMs / 1000.0;
                us.reconFreeAt = renderTime;
                frame.e2eMs = (renderTime - p.captureTime) * 1000.0;
                if (decoded.valid && qualityInterval > 0 &&
                    f % qualityInterval == 0)
                    parkedMeshes[slot][u] = std::move(decoded.mesh);
            }
        } else {
            frame.e2eMs = (p.transfer.completionTime - p.captureTime) * 1000.0;
        }
        s.frames.push_back(std::move(frame));
        return stageMs;
    };

    // Quality eval: Chamfer of the parked mesh against the LBS ground
    // truth. Writes only its own result slot and empties the parked mesh
    // (D(f+depth,u) refills it only after R(f)). It is a measurement,
    // not a pipeline stage: its wall time lands in FrameStats::qualityMs
    // and it returns no simulated cost, so it never moves the clocks or
    // the schedule comparison.
    const auto qualityBody = [&](std::size_t f, std::size_t slot,
                                 std::size_t u) {
        const mesh::TriMesh mesh = std::exchange(parkedMeshes[slot][u], {});
        if (mesh.empty()) return 0.0;
        const auto t0 = std::chrono::steady_clock::now();
        const mesh::TriMesh truth = model.deform(ring[slot][u].pose);
        QualityResult& q = quality[u][f];
        q.chamfer = mesh::compareMeshes(truth, mesh, base.qualitySamples).chamfer;
        q.wallMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        return 0.0;
    };

    // ---- Graph construction ------------------------------------------------
    // Nodes are inserted in the legacy per-tick phase order (arbiter,
    // encodes, tickets, downlinks, decodes, quality evals, retire), so
    // runSerial() is the legacy schedule; the edges are everything
    // runParallel() needs.
    StageGraph graph;
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> prevTicket(users, kNone);
    std::vector<std::size_t> prevDecode(users, kNone);
    std::vector<std::size_t> prevDown(users, kNone);
    std::vector<std::size_t> retireNodes;
    retireNodes.reserve(base.frames);
    std::size_t lastTicketGlobal = kNone;
    std::size_t prevRetire = kNone;
    std::vector<std::size_t> enc(users), tix(users), dec(users), downNodes,
        qualityNodes;

    for (std::size_t f = 0; f < base.frames; ++f) {
        const std::size_t slot = f % depth;
        const double captureTime = static_cast<double>(f) / base.fps;
        const std::uint32_t tick = static_cast<std::uint32_t>(f);

        // Arbiter: needs every user's previous-tick ticket outcome. In
        // shared mode the global ticket chain makes one edge from the
        // last ticket suffice.
        std::size_t sharedArb = kNone;
        std::vector<std::size_t> userArb;
        if (arbiterOn) {
            if (conf.sharedUplink) {
                sharedArb = graph.addNode(
                    StageKind::Arbiter, tick, kNone,
                    [&, captureTime] { return arbiterSharedBody(captureTime); });
                if (lastTicketGlobal != kNone)
                    graph.addEdge(lastTicketGlobal, sharedArb);
            } else {
                userArb.assign(users, kNone);
                for (std::size_t u = 0; u < users; ++u) {
                    userArb[u] = graph.addNode(
                        StageKind::Arbiter, tick, u, [&, u, captureTime] {
                            return arbiterUserBody(u, captureTime);
                        });
                    if (prevTicket[u] != kNone)
                        graph.addEdge(prevTicket[u], userArb[u]);
                }
            }
        }

        // Encode: released by this user's own previous decode (channel
        // state + feedback), the tick's arbiter targets, and the retire
        // of the ring slot it reuses. That is the pipelining win — no
        // edge to any *other* user's tick f-1 work.
        for (std::size_t u = 0; u < users; ++u) {
            enc[u] = graph.addNode(StageKind::Encode, tick, u,
                                   [&, f, slot, u, captureTime] {
                                       return encodeBody(f, slot, u,
                                                         captureTime);
                                   });
            if (prevDecode[u] != kNone) graph.addEdge(prevDecode[u], enc[u]);
            const std::size_t arbNode =
                sharedArb != kNone ? sharedArb
                                   : (userArb.empty() ? kNone : userArb[u]);
            if (arbNode != kNone) graph.addEdge(arbNode, enc[u]);
            if (f >= depth) graph.addEdge(retireNodes[f - depth], enc[u]);
        }

        // Uplink tickets: the per-link entry-order chain.
        for (std::size_t u = 0; u < users; ++u) {
            tix[u] = graph.addNode(StageKind::Uplink, tick, u,
                                   [&, slot, u] { return uplinkBody(slot, u); });
            graph.addEdge(enc[u], tix[u]);
            if (conf.sharedUplink) {
                if (lastTicketGlobal != kNone)
                    graph.addEdge(lastTicketGlobal, tix[u]);
                lastTicketGlobal = tix[u];
            } else if (prevTicket[u] != kNone) {
                graph.addEdge(prevTicket[u], tix[u]);
            }
            prevTicket[u] = tix[u];
        }

        // Downlink fan-out: one node per viewer with subscriptions.
        downNodes.clear();
        if (conf.enableDownlinks) {
            for (std::size_t v = 0; v < users; ++v) {
                if (downs[v].subs.empty()) continue;
                const std::size_t node =
                    graph.addNode(StageKind::Downlink, tick, v, [&, slot, v] {
                        return downlinkBody(slot, v);
                    });
                for (const auto& [u, scale] : downs[v].subs) {
                    (void)scale;
                    graph.addEdge(tix[u], node);
                }
                if (prevDown[v] != kNone) graph.addEdge(prevDown[v], node);
                prevDown[v] = node;
                downNodes.push_back(node);
            }
        }

        // Decode. (The D(f-1,u) order needed for frames.push_back holds
        // transitively: D(f,u) <- T(f,u) <- E(f,u) <- D(f-1,u).)
        for (std::size_t u = 0; u < users; ++u) {
            dec[u] = graph.addNode(StageKind::Decode, tick, u,
                                   [&, f, slot, u] {
                                       return decodeBody(f, slot, u);
                                   });
            graph.addEdge(tix[u], dec[u]);
            prevDecode[u] = dec[u];
        }

        // Quality eval on sampled ticks: after its own decode, joined
        // only by the retire — no encode waits for it.
        qualityNodes.clear();
        if (qualityInterval > 0 && f % qualityInterval == 0) {
            for (std::size_t u = 0; u < users; ++u) {
                const std::size_t node =
                    graph.addNode(StageKind::Quality, tick, u, [&, f, slot, u] {
                        return qualityBody(f, slot, u);
                    });
                graph.addEdge(dec[u], node);
                qualityNodes.push_back(node);
            }
        }

        // Retire: the tick's completion join; releases its ring slot for
        // tick f + depth.
        const std::size_t retire =
            graph.addNode(StageKind::Retire, tick, kNone, [] { return 0.0; });
        for (std::size_t u = 0; u < users; ++u) graph.addEdge(dec[u], retire);
        for (const std::size_t node : qualityNodes) graph.addEdge(node, retire);
        for (const std::size_t node : downNodes) graph.addEdge(node, retire);
        if (prevRetire != kNone) graph.addEdge(prevRetire, retire);
        prevRetire = retire;
        retireNodes.push_back(retire);
    }

    // ---- Run ----------------------------------------------------------------
    if (pool != nullptr)
        graph.runParallel(*pool);
    else
        graph.runSerial();
    graph.fillStats(out.pipeline, pool != nullptr ? pool->size() : 1);
    out.pipeline.pipelineDepth = depth;

    // Fold the quality results into the sampled frames (D(f,u) appended
    // frame f of user u).
    for (std::size_t u = 0; u < users; ++u) {
        for (std::size_t f = 0; f < quality[u].size(); f += qualityInterval) {
            out.perUser[u].frames[f].chamfer = quality[u][f].chamfer;
            out.perUser[u].frames[f].qualityMs = quality[u][f].wallMs;
        }
    }

    // Downlink rollup: per-viewer totals, the conference-wide fan-out
    // totals, and each viewer's share of the fanned-out bytes.
    if (conf.enableDownlinks) {
        out.downlinks.reserve(users);
        for (DownlinkState& d : downs) {
            for (const DownlinkStreamStats& ss : d.stats.streams) {
                d.stats.framesForwarded += ss.framesForwarded;
                d.stats.framesDelivered += ss.framesDelivered;
                d.stats.bytesForwarded += ss.bytesForwarded;
                d.stats.bytesDelivered += ss.bytesDelivered;
                d.stats.packets += ss.packets;
                d.stats.packetsDelivered += ss.packetsDelivered;
                d.stats.packetsUnrecovered += ss.packetsUnrecovered;
            }
            d.stats.meanTransferMs =
                d.stats.framesForwarded > 0
                    ? d.transferMsSum /
                          static_cast<double>(d.stats.framesForwarded)
                    : 0.0;
            out.serverFanoutFrames += d.stats.framesForwarded;
            out.serverFanoutBytes += d.stats.bytesForwarded;
            out.downlinks.push_back(std::move(d.stats));
        }
        for (DownlinkStats& d : out.downlinks)
            d.fanoutShare = out.serverFanoutBytes > 0
                                ? static_cast<double>(d.bytesForwarded) /
                                      static_cast<double>(out.serverFanoutBytes)
                                : 0.0;
    }

    finalizeMultiSessionStats(out, base);
    fillFairness(out, state);
    return out;
}

}  // namespace semholo::core::internal
