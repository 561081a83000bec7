/**
 * @file
 * Chaos harness tests: deterministic fault injection (sim/faults) and
 * the client/server resilience layer (net/resilience, the FrameServer
 * fan-out guard, FiSync drop tolerance), plus full multiplayer
 * sessions under scripted fault schedules.
 *
 * The determinism contract under test: every chaos run is a pure
 * function of (seed, fault plan) — bit-identical metrics snapshots on
 * repeat runs and at any `COTERIE_THREADS` (the CI chaos job re-runs
 * this binary at 1/2/4 workers). An empty plan with resilience
 * disabled must reproduce the pre-chaos Coterie system bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hh"
#include "net/channel.hh"
#include "obs/slo.hh"
#include "net/endpoints.hh"
#include "net/fi_sync.hh"
#include "net/resilience.hh"
#include "obs/flight.hh"
#include "sim/faults.hh"

namespace coterie {
namespace {

using core::PlayerMetrics;
using core::Session;
using core::SessionParams;
using core::SystemResult;
using sim::EventQueue;
using sim::FaultPlan;
using sim::TimeMs;

// ---------------------------------------------------------------------
// FaultPlan query semantics
// ---------------------------------------------------------------------

TEST(FaultPlan, EmptyPlanDegradesNothing)
{
    const FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    EXPECT_DOUBLE_EQ(plan.extraLossProbability(0.0), 0.0);
    EXPECT_DOUBLE_EQ(plan.extraLatencyMs(500.0), 0.0);
    EXPECT_DOUBLE_EQ(plan.bandwidthFactor(1e6), 1.0);
    EXPECT_FALSE(plan.serverStalled(0.0));
    EXPECT_FALSE(plan.disconnected(0, 0.0));
    EXPECT_EQ(plan.activeEpisodes(0.0), 0);
    EXPECT_TRUE(std::isinf(plan.nextBoundaryAfter(0.0)));
}

TEST(FaultPlan, EpisodeWindowsAreHalfOpen)
{
    FaultPlan plan;
    plan.lossBurst(100.0, 200.0, 0.5);
    EXPECT_DOUBLE_EQ(plan.extraLossProbability(99.9), 0.0);
    EXPECT_DOUBLE_EQ(plan.extraLossProbability(100.0), 0.5); // inclusive
    EXPECT_DOUBLE_EQ(plan.extraLossProbability(199.9), 0.5);
    EXPECT_DOUBLE_EQ(plan.extraLossProbability(200.0), 0.0); // exclusive
}

TEST(FaultPlan, OverlappingEffectsCompose)
{
    FaultPlan plan;
    plan.lossBurst(0.0, 100.0, 0.4)
        .lossBurst(50.0, 150.0, 0.8) // sum clamps at 1
        .latencySpike(0.0, 100.0, 5.0)
        .latencySpike(0.0, 100.0, 2.5)
        .bandwidthCollapse(0.0, 100.0, 0.5)
        .bandwidthCollapse(0.0, 100.0, 0.4);
    EXPECT_DOUBLE_EQ(plan.extraLossProbability(10.0), 0.4);
    EXPECT_DOUBLE_EQ(plan.extraLossProbability(60.0), 1.0); // clamped
    EXPECT_DOUBLE_EQ(plan.extraLatencyMs(10.0), 7.5);
    EXPECT_DOUBLE_EQ(plan.bandwidthFactor(10.0), 0.2); // multiplies
    EXPECT_EQ(plan.activeEpisodes(60.0), 6);
}

TEST(FaultPlan, OutageZeroesBandwidthRegardlessOfCollapses)
{
    FaultPlan plan;
    plan.bandwidthCollapse(0.0, 100.0, 0.9).outage(40.0, 60.0);
    EXPECT_DOUBLE_EQ(plan.bandwidthFactor(39.0), 0.9);
    EXPECT_DOUBLE_EQ(plan.bandwidthFactor(50.0), 0.0);
    EXPECT_DOUBLE_EQ(plan.bandwidthFactor(60.0), 0.9);
}

TEST(FaultPlan, NextBoundaryWalksEpisodeEdges)
{
    FaultPlan plan;
    plan.lossBurst(100.0, 200.0, 0.1).outage(150.0, 300.0);
    EXPECT_DOUBLE_EQ(plan.nextBoundaryAfter(0.0), 100.0);
    EXPECT_DOUBLE_EQ(plan.nextBoundaryAfter(100.0), 150.0);
    EXPECT_DOUBLE_EQ(plan.nextBoundaryAfter(150.0), 200.0);
    EXPECT_DOUBLE_EQ(plan.nextBoundaryAfter(200.0), 300.0);
    EXPECT_TRUE(std::isinf(plan.nextBoundaryAfter(300.0)));
}

TEST(FaultPlan, ChainedStallsAndDisconnectsFollowToTheEnd)
{
    FaultPlan plan;
    plan.serverStall(0.0, 100.0)
        .serverStall(90.0, 250.0) // overlaps: stall ends at 250
        .disconnect(10.0, 50.0, 1)
        .disconnect(40.0, 80.0, 1) // chained for client 1
        .disconnect(0.0, 30.0, -1); // broadcast
    EXPECT_DOUBLE_EQ(plan.serverStallEndsAt(10.0), 250.0);
    EXPECT_DOUBLE_EQ(plan.serverStallEndsAt(250.0), 250.0);
    EXPECT_TRUE(plan.disconnected(7, 10.0)); // broadcast hits everyone
    EXPECT_DOUBLE_EQ(plan.reconnectsAt(1, 15.0), 80.0);
    EXPECT_DOUBLE_EQ(plan.reconnectsAt(7, 15.0), 30.0);
    EXPECT_FALSE(plan.disconnected(7, 30.0));
}

TEST(FaultPlan, ScaledSeverityInterpolatesAndDropsInertEpisodes)
{
    FaultPlan plan;
    plan.lossBurst(0.0, 100.0, 0.6)
        .latencySpike(0.0, 100.0, 10.0)
        .bandwidthCollapse(0.0, 100.0, 0.2)
        .outage(50.0, 150.0);

    const FaultPlan zero = plan.scaled(0.0);
    EXPECT_TRUE(zero.empty()); // severity 0 degrades nothing

    const FaultPlan half = plan.scaled(0.5);
    EXPECT_DOUBLE_EQ(half.extraLossProbability(10.0), 0.3);
    EXPECT_DOUBLE_EQ(half.extraLatencyMs(10.0), 5.0);
    EXPECT_DOUBLE_EQ(half.bandwidthFactor(10.0), 0.6); // 1-(1-0.2)/2
    EXPECT_DOUBLE_EQ(half.bandwidthFactor(60.0), 0.0); // outage active
    EXPECT_DOUBLE_EQ(half.bandwidthFactor(110.0), 1.0); // duration halved

    const FaultPlan full = plan.scaled(1.0);
    EXPECT_EQ(full.size(), plan.size());
    EXPECT_DOUBLE_EQ(full.extraLossProbability(10.0), 0.6);
    EXPECT_DOUBLE_EQ(full.bandwidthFactor(120.0), 0.0);
}

// ---------------------------------------------------------------------
// ResilientFetcher over a faulty channel
// ---------------------------------------------------------------------

/** One client's network stack over a scripted link. */
struct NetRig
{
    explicit NetRig(net::ChannelParams cp = {},
                    net::FrameServerParams sp = {},
                    std::uint64_t frameBytes = 125000)
        : channel(queue, cp, &plan),
          server(
              queue, channel,
              [frameBytes](std::uint64_t) { return frameBytes; }, sp,
              &plan)
    {
    }

    net::ResilientFetcher makeFetcher(net::ResilienceParams rp)
    {
        rp.enabled = true;
        return net::ResilientFetcher(queue, server, rp);
    }

    EventQueue queue;
    FaultPlan plan;
    net::SharedChannel channel;
    net::FrameServer server;
};

TEST(ResilientFetcher, CleanFetchIsAPassThrough)
{
    NetRig rig;
    net::ResilienceParams rp;
    rp.timeoutMs = 60.0;
    auto fetcher = rig.makeFetcher(rp);

    double delivered_at = -1.0;
    fetcher.fetch(7, [&](std::uint64_t key, TimeMs at) {
        EXPECT_EQ(key, 7u);
        delivered_at = at;
    });
    rig.queue.runToCompletion();
    EXPECT_GT(delivered_at, 0.0);
    EXPECT_EQ(fetcher.stats().delivered, 1u);
    EXPECT_EQ(fetcher.stats().retries, 0u);
    EXPECT_EQ(fetcher.stats().timeouts, 0u);
    EXPECT_EQ(fetcher.stats().failures, 0u);
    EXPECT_EQ(rig.server.requestsServed(), 1u);
}

TEST(ResilientFetcher, TimesOutRetriesAndRecoversAfterOutage)
{
    NetRig rig;
    rig.plan.outage(0.0, 300.0);
    net::ResilienceParams rp;
    rp.timeoutMs = 50.0;
    rp.maxAttempts = 12;
    auto fetcher = rig.makeFetcher(rp);

    double delivered_at = -1.0;
    bool failed = false;
    fetcher.fetch(
        1, [&](std::uint64_t, TimeMs at) { delivered_at = at; },
        [&](std::uint64_t, TimeMs) { failed = true; });
    rig.queue.runToCompletion();

    EXPECT_FALSE(failed);
    EXPECT_GT(delivered_at, 300.0); // only after the outage lifts
    EXPECT_GE(fetcher.stats().timeouts, 1u);
    EXPECT_GE(fetcher.stats().retries, 1u);
    EXPECT_EQ(fetcher.stats().recoveries, 1u);
    EXPECT_EQ(fetcher.stats().delivered, 1u);
    // Every timed-out attempt released its link share.
    EXPECT_EQ(rig.channel.active(), 0u);
    EXPECT_GE(rig.channel.expiredCount(), 1u);
}

TEST(ResilientFetcher, GivesUpAfterMaxAttempts)
{
    NetRig rig;
    rig.plan.outage(0.0, 1e9); // link never recovers in this run
    net::ResilienceParams rp;
    rp.timeoutMs = 20.0;
    rp.maxAttempts = 3;
    auto fetcher = rig.makeFetcher(rp);

    bool delivered = false;
    double failed_at = -1.0;
    fetcher.fetch(
        1, [&](std::uint64_t, TimeMs) { delivered = true; },
        [&](std::uint64_t, TimeMs at) { failed_at = at; });
    rig.queue.runUntil(5000.0);

    EXPECT_FALSE(delivered);
    EXPECT_GT(failed_at, 0.0);
    EXPECT_EQ(fetcher.stats().timeouts, 3u);
    EXPECT_EQ(fetcher.stats().retries, 2u);
    EXPECT_EQ(fetcher.stats().failures, 1u);
    EXPECT_FALSE(fetcher.inFlight(1));
}

TEST(ResilientFetcher, DuplicateFetchesAttachToTheOutstandingAttempt)
{
    NetRig rig;
    net::ResilienceParams rp;
    auto fetcher = rig.makeFetcher(rp);

    int deliveries = 0;
    fetcher.fetch(9, [&](std::uint64_t, TimeMs) { ++deliveries; });
    fetcher.fetch(9, [&](std::uint64_t, TimeMs) { ++deliveries; });
    fetcher.fetch(9, [&](std::uint64_t, TimeMs) { ++deliveries; });
    rig.queue.runToCompletion();

    EXPECT_EQ(deliveries, 3);           // every caller hears back
    EXPECT_EQ(rig.server.requestsServed(), 1u); // one wire request
    EXPECT_EQ(fetcher.stats().duplicates, 2u);
}

TEST(ResilientFetcher, CancelAllDropsFetchesWithoutCallbacks)
{
    NetRig rig;
    rig.plan.outage(0.0, 500.0);
    net::ResilienceParams rp;
    rp.timeoutMs = 40.0;
    auto fetcher = rig.makeFetcher(rp);

    bool any_callback = false;
    fetcher.fetch(1, [&](std::uint64_t, TimeMs) { any_callback = true; },
                  [&](std::uint64_t, TimeMs) { any_callback = true; });
    fetcher.fetch(2, [&](std::uint64_t, TimeMs) { any_callback = true; });
    rig.queue.scheduleAt(100.0, [&] {
        EXPECT_EQ(fetcher.cancelAll(), 2u);
    });
    rig.queue.runToCompletion();

    EXPECT_FALSE(any_callback);
    EXPECT_EQ(fetcher.stats().cancelled, 2u);
    EXPECT_FALSE(fetcher.inFlight(1));
    EXPECT_FALSE(fetcher.inFlight(2));
}

TEST(ResilientFetcher, RetryScheduleIsDeterministic)
{
    auto run = [] {
        NetRig rig;
        rig.plan.outage(0.0, 200.0).lossBurst(200.0, 400.0, 0.5);
        net::ResilienceParams rp;
        rp.timeoutMs = 30.0;
        rp.maxAttempts = 10;
        rp.seed = 77;
        auto fetcher = rig.makeFetcher(rp);
        std::vector<double> deliveries;
        for (std::uint64_t key = 0; key < 4; ++key)
            fetcher.fetch(key, [&](std::uint64_t, TimeMs at) {
                deliveries.push_back(at);
            });
        rig.queue.runToCompletion();
        char buf[64];
        std::string snap;
        for (const double t : deliveries) {
            std::snprintf(buf, sizeof buf, "%a;", t);
            snap += buf;
        }
        snap += std::to_string(fetcher.stats().retries) + "/" +
                std::to_string(fetcher.stats().timeouts);
        return snap;
    };
    EXPECT_EQ(run(), run()); // bit-identical schedules
}

// ---------------------------------------------------------------------
// FrameServer fan-out guard + scripted stalls
// ---------------------------------------------------------------------

TEST(FrameServer, FanOutGuardBoundsInFlightTransfers)
{
    net::FrameServerParams sp;
    sp.maxInFlight = 2;
    NetRig rig({}, sp);

    int delivered = 0;
    for (std::uint64_t key = 0; key < 6; ++key)
        rig.server.request(key, [&](std::uint64_t, TimeMs) {
            ++delivered;
            EXPECT_LE(rig.server.inFlight(), 2u);
        });
    EXPECT_EQ(rig.server.inFlight(), 2u);
    EXPECT_EQ(rig.server.backlog(), 4u);
    rig.queue.runToCompletion();
    EXPECT_EQ(delivered, 6);
    EXPECT_EQ(rig.server.backlog(), 0u);
    EXPECT_EQ(rig.server.requestsServed(), 6u);
}

TEST(FrameServer, ScriptedStallDefersServiceUntilTheEnd)
{
    NetRig rig;
    rig.plan.serverStall(0.0, 100.0);

    double delivered_at = -1.0;
    rig.server.request(1, [&](std::uint64_t, TimeMs at) {
        delivered_at = at;
    });
    EXPECT_EQ(rig.server.backlog(), 1u);
    EXPECT_EQ(rig.server.stallDeferrals(), 1u);
    rig.queue.runToCompletion();
    EXPECT_GT(delivered_at, 100.0); // served only after the stall
}

TEST(FrameServer, BackloggedRequestsExpireWhenTheirDeadlineLapses)
{
    NetRig rig;
    rig.plan.serverStall(0.0, 200.0);

    bool delivered = false;
    double expired_at = -1.0;
    net::RequestOptions opts;
    opts.deadlineMs = 50.0; // lapses inside the stall
    opts.onExpired = [&](std::uint64_t, TimeMs at) { expired_at = at; };
    rig.server.request(1, [&](std::uint64_t, TimeMs) {
        delivered = true;
    }, opts);
    rig.queue.runToCompletion();
    EXPECT_FALSE(delivered);
    EXPECT_GE(expired_at, 50.0);
}

TEST(FrameServer, CancelCoversBacklogAndWire)
{
    net::FrameServerParams sp;
    sp.maxInFlight = 1;
    NetRig rig({}, sp);

    bool a_done = false, b_done = false;
    const net::RequestId a =
        rig.server.request(1, [&](std::uint64_t, TimeMs) { a_done = true; });
    const net::RequestId b =
        rig.server.request(2, [&](std::uint64_t, TimeMs) { b_done = true; });
    EXPECT_TRUE(rig.server.cancel(b)); // backlogged
    EXPECT_TRUE(rig.server.cancel(a)); // on the wire
    rig.queue.runToCompletion();
    EXPECT_FALSE(a_done);
    EXPECT_FALSE(b_done);
    EXPECT_EQ(rig.server.requestsServed(), 0u);
    EXPECT_FALSE(rig.server.cancel(a)); // unknown now
}

// ---------------------------------------------------------------------
// FiSync drop tolerance
// ---------------------------------------------------------------------

TEST(FiSync, ZeroLossDrawsTheHistoricalRandomStream)
{
    net::FiSyncParams params;
    net::FiSync a(params, 11), b(params, 11);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.syncLatencyMs(4), b.syncLatencyMs(4, 0.0));
}

TEST(FiSync, DeadReckonsThroughToleratedDropsThenStalls)
{
    net::FiSyncParams params;
    params.latencyJitterMs = 0.0; // deterministic clean latency
    params.dropToleranceTicks = 3;
    net::FiSync sync(params, 5);

    const double clean = params.meanLatencyMs * 2.0 + 0.08 * 3;
    // Three consecutive losses are papered over with dead reckoning.
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(sync.syncLatencyMs(4, 1.0),
                    clean + params.deadReckonPenaltyMs, 1e-9);
    // The fourth blocks a retransmit round trip...
    EXPECT_NEAR(sync.syncLatencyMs(4, 1.0),
                clean + params.retransmitWaitMs, 1e-9);
    // ...and resets the tolerance window.
    EXPECT_NEAR(sync.syncLatencyMs(4, 1.0),
                clean + params.deadReckonPenaltyMs, 1e-9);
    EXPECT_EQ(sync.dropsTolerated(), 4u);
    EXPECT_EQ(sync.syncStalls(), 1u);
}

// ---------------------------------------------------------------------
// Full multiplayer sessions under scripted fault schedules
// ---------------------------------------------------------------------

/** Shared session (expensive to build; reused across chaos tests). */
const Session &
chaosSession()
{
    static std::unique_ptr<Session> session = [] {
        SessionParams params;
        params.players = 2;
        params.durationS = 30.0;
        params.seed = 42;
        return Session::create(world::gen::GameId::Viking, params);
    }();
    return *session;
}

/**
 * Bit-exact metrics snapshot: every counter and double (hexfloat, so
 * equality means identical bits) of every player.
 */
std::string
snapshot(const SystemResult &result)
{
    std::string out = result.systemName + "\n";
    char buf[512];
    for (const PlayerMetrics &m : result.players) {
        std::snprintf(
            buf, sizeof buf,
            "p%d f=%llu/%llu g=%llu s=%llu d=%llu r=%llu t=%llu "
            "x=%llu dc=%llu rj=%llu | %a %a %a %a %a %a %a %a\n",
            m.playerId,
            static_cast<unsigned long long>(m.framesDisplayed),
            static_cast<unsigned long long>(m.framesFetched),
            static_cast<unsigned long long>(m.gridTransitions),
            static_cast<unsigned long long>(m.stalls),
            static_cast<unsigned long long>(m.framesDegraded),
            static_cast<unsigned long long>(m.netRetries),
            static_cast<unsigned long long>(m.netTimeouts),
            static_cast<unsigned long long>(m.fetchGiveups),
            static_cast<unsigned long long>(m.disconnects),
            static_cast<unsigned long long>(m.rejoins), m.fps,
            m.interFrameMs, m.responsivenessMs, m.beMbps,
            m.cacheHitRatio, m.stallMs, m.rejoinHitRatio, m.netDelayMs);
        out += buf;
    }
    std::snprintf(buf, sizeof buf, "chan=%a\n", result.channelUtilMbps);
    out += buf;
    return out;
}

net::ResilienceParams
defaultResilience()
{
    net::ResilienceParams rp;
    rp.enabled = true;
    return rp;
}

/** The four scripted schedules of the acceptance criteria. */
std::vector<std::pair<std::string, FaultPlan>>
chaosSchedules()
{
    std::vector<std::pair<std::string, FaultPlan>> schedules;
    {
        FaultPlan plan; // WLAN interference: losses + latency
        plan.lossBurst(5000.0, 15000.0, 0.35)
            .latencySpike(5000.0, 15000.0, 4.0);
        schedules.emplace_back("loss_latency", plan);
    }
    {
        FaultPlan plan; // congestion collapse + a brief server stall
        plan.bandwidthCollapse(8000.0, 16000.0, 0.06)
            .serverStall(4000.0, 4400.0);
        schedules.emplace_back("collapse_stall", plan);
    }
    {
        FaultPlan plan; // hard outage
        plan.outage(10000.0, 10600.0);
        schedules.emplace_back("outage", plan);
    }
    {
        FaultPlan plan; // client 1 drops off the WLAN and rejoins
        plan.disconnect(5000.0, 8000.0, 1);
        schedules.emplace_back("disconnect_rejoin", plan);
    }
    return schedules;
}

TEST(ChaosSession, SchedulesAreBitIdenticalOnRepeatRuns)
{
    const Session &session = chaosSession();
    // With COTERIE_CHAOS_DUMP=<path> the snapshots are appended to that
    // file so the CI chaos job can diff them bit for bit across
    // COTERIE_THREADS=1/2/4 runs of this binary.
    std::FILE *dump = nullptr;
    if (const char *path = std::getenv("COTERIE_CHAOS_DUMP"))
        dump = std::fopen(path, "a");
    for (const auto &[name, plan] : chaosSchedules()) {
        const SystemResult a =
            session.runCoterieChaos(plan, defaultResilience());
        const SystemResult b =
            session.runCoterieChaos(plan, defaultResilience());
        EXPECT_EQ(snapshot(a), snapshot(b)) << "schedule " << name;
        if (dump != nullptr)
            std::fprintf(dump, "== %s ==\n%s", name.c_str(),
                         snapshot(a).c_str());
    }
    if (dump != nullptr) {
        // The deadline SLO summaries are sim-time derived only, so
        // they must also diff bit-identical across COTERIE_THREADS.
        std::fprintf(
            dump, "== slo ==\n%s\n",
            obs::SloRegistry::global().snapshotJson().dump(2).c_str());
        std::fclose(dump);
    }
}

TEST(ChaosSession, FlightCaptureIsObserveOnly)
{
    // The same schedule with a flight capture on and off: the metrics
    // snapshot and the published deadline SLOs must match bit for bit
    // (the capture records every span, hop and counter of the run, and
    // nothing may read any of it back).
    const Session &session = chaosSession();
    const FaultPlan plan = chaosSchedules().front().second;
    const auto run = [&](bool capture) {
        const std::string path = "chaos_test_capture.json";
        if (capture)
            obs::flight::startCapture();
        const SystemResult result =
            session.runCoterieChaos(plan, defaultResilience());
        if (capture) {
            const long events = obs::flight::stopCapture(path);
            if (obs::flight::kCompiledIn) {
                EXPECT_GT(events, 0);
            }
            std::remove(path.c_str());
        }
        return snapshot(result) + "== slo ==\n" +
               obs::SloRegistry::global().snapshotJson().dump(2);
    };
    const std::string captured = run(true);
    EXPECT_EQ(captured, run(false));
}

TEST(ChaosSession, EmptyPlanWithResilienceOffIsTheCleanRun)
{
    const Session &session = chaosSession();
    const FaultPlan empty;
    net::ResilienceParams off; // .enabled = false
    const SystemResult chaos = session.runCoterieChaos(empty, off);
    const SystemResult clean = session.runCoterieSystem();
    // The resilience layer must be a strict no-op when nothing is
    // scripted: same code path, same rng stream, same bits.
    EXPECT_EQ(snapshot(chaos), snapshot(clean));
}

TEST(ChaosSession, DisconnectedClientRejoinsAndRecoversItsCache)
{
    const Session &session = chaosSession();
    FaultPlan plan;
    plan.disconnect(5000.0, 8000.0, 1);
    const SystemResult result =
        session.runCoterieChaos(plan, defaultResilience());

    ASSERT_EQ(result.players.size(), 2u);
    const PlayerMetrics &dropped = result.players[1];
    EXPECT_EQ(dropped.disconnects, 1u);
    EXPECT_EQ(dropped.rejoins, 1u);
    // The rejoin probe window (settle 3 s, probe 8 s after the 8 s
    // rejoin) must show the cover set re-synced: >= 95% of displayed
    // frames served without a stall or degradation.
    ASSERT_GE(dropped.rejoinHitRatio, 0.0) << "probe window not hit";
    EXPECT_GE(dropped.rejoinHitRatio, 0.95);
    // The untouched player never noticed.
    EXPECT_EQ(result.players[0].disconnects, 0u);
}

TEST(ChaosSession, ResilienceConvertsStallTimeIntoDegradedFrames)
{
    const Session &session = chaosSession();
    FaultPlan plan; // a rough patch: collapse then a hard outage
    plan.bandwidthCollapse(8000.0, 14000.0, 0.05)
        .outage(15000.0, 15600.0);

    net::ResilienceParams off; // faults on, resilience off
    const SystemResult bare = session.runCoterieChaos(plan, off);
    const SystemResult resilient =
        session.runCoterieChaos(plan, defaultResilience());

    double bare_stall_ms = 0.0, resilient_stall_ms = 0.0;
    std::uint64_t degraded = 0, retries = 0;
    for (const PlayerMetrics &m : bare.players)
        bare_stall_ms += m.stallMs;
    for (const PlayerMetrics &m : resilient.players) {
        resilient_stall_ms += m.stallMs;
        degraded += m.framesDegraded;
        retries += m.netRetries;
    }
    // Degraded-frame substitution caps every freeze at ~one tick, so
    // total frozen time collapses versus the bare client.
    EXPECT_LT(resilient_stall_ms, bare_stall_ms * 0.5);
    EXPECT_GT(degraded, 0u);
    // And the fault window actually exercised the retry machinery.
    EXPECT_GT(retries, 0u);
}

} // namespace
} // namespace coterie
