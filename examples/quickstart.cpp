/**
 * @file
 * Quickstart: the smallest end-to-end use of the Coterie library.
 *
 * Builds the Viking Village world, runs the offline preprocessing
 * (adaptive cutoff partitioning + reuse-distance derivation), starts a
 * 2-player session, and compares Coterie against the Multi-Furion
 * baseline on frame rate, responsiveness, and network load.
 *
 *   $ ./quickstart [players] [seconds]
 *
 * With COTERIE_TRACE=<basename> in the environment, captures the whole
 * run from the flight recorder and writes `<basename>.trace.json`
 * (Chrome trace_event — open in Perfetto or feed to trace_report) plus
 * `<basename>.metrics.json` (the metrics-registry snapshot). In a
 * `-DCOTERIE_FLIGHT=OFF` build the capture is inert: only the metrics
 * snapshot is written, and the run says so.
 *
 * With COTERIE_CHAOS=1 an extra chaos pass runs Coterie under a
 * scripted fault plan (loss burst, bandwidth collapse, outage) with
 * the resilience layer on — combine with COTERIE_TRACE and feed the
 * trace to trace_report for the fault-timeline section.
 *
 * With COTERIE_INJECT_ASSERT=1 the run trips a deliberate assertion
 * right after the system comparison: the always-on flight recorder's
 * panic hook then writes its ring buffers to `$COTERIE_FLIGHT_DUMP`
 * (default `coterie.flight.json`) before aborting — the CI crash-
 * forensics smoke drives exactly this path and feeds the dump to
 * `trace_report --frames`.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/session.hh"
#include "net/resilience.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/faults.hh"
#include "support/logging.hh"

using namespace coterie;
using namespace coterie::core;

int
main(int argc, char **argv)
{
    const int players = argc > 1 ? std::atoi(argv[1]) : 2;
    const double seconds = argc > 2 ? std::atof(argv[2]) : 30.0;

    const char *traceEnv = std::getenv("COTERIE_TRACE");
    const std::string traceBase = traceEnv ? traceEnv : "";
    if (!traceBase.empty()) {
        obs::installPoolTelemetry();
        obs::flight::startCapture();
    }

    // Arm the flight recorder's crash dump up front (it would also
    // arm lazily on the first recorded event).
    obs::flight::installPanicDump();

    std::printf("Coterie quickstart: Viking Village, %d player(s), "
                "%.0f s of play\n\n",
                players, seconds);

    // 1. Build the world and run the offline preprocessing. A Session
    //    bundles the virtual world, its grid discretisation, the
    //    adaptive-cutoff quadtree, per-region reuse distances, the
    //    pre-rendered frame catalogue, and multiplayer movement traces.
    SessionParams params;
    params.players = players;
    params.durationS = seconds;
    auto session = Session::create(world::gen::GameId::Viking, params);

    std::printf("offline preprocessing:\n");
    std::printf("  grid points        : %.1f million\n",
                session->grid().pointCount() / 1e6);
    std::printf("  leaf regions       : %zu (avg depth %.2f, max %d)\n",
                session->partition().leaves.size(),
                session->partition().avgLeafDepth,
                session->partition().maxLeafDepth);
    std::printf("  cutoff calculations: %llu (vs %.1f M grid points)\n",
                static_cast<unsigned long long>(
                    session->partition().cutoffCalculations),
                session->grid().pointCount() / 1e6);

    // 2. Run the prior art and Coterie on identical traces.
    const SystemResult furion = session->runMultiFurionSystem();
    const SystemResult coterie = session->runCoterieSystem();

    std::printf("\n%-14s %8s %10s %12s %12s %10s\n", "system", "FPS",
                "frame(ms)", "resp(ms)", "net(Mbps)", "cache hit");
    for (const SystemResult *result : {&furion, &coterie}) {
        double be = 0.0;
        for (const PlayerMetrics &m : result->players)
            be += m.beMbps;
        std::printf("%-14s %8.1f %10.2f %12.2f %12.1f %9.1f%%\n",
                    result->systemName.c_str(), result->avgFps(),
                    result->avgInterFrameMs(),
                    result->players[0].responsivenessMs, be,
                    100.0 * result->avgCacheHitRatio());
    }

    const double reduction =
        furion.players[0].beMbps /
        std::max(0.1, coterie.players[0].beMbps);
    std::printf("\nCoterie reduces the per-player network load %.1fx "
                "while holding 60 FPS.\n",
                reduction);

    // Crash-forensics smoke: trip an assertion while the flight rings
    // hold a full run's worth of frame events, proving the panic hook
    // leaves a loadable dump behind (CI parses it with trace_report).
    if (std::getenv("COTERIE_INJECT_ASSERT") != nullptr) {
        std::printf("\nCOTERIE_INJECT_ASSERT set: tripping a "
                    "deliberate assert; expect a flight dump at %s\n",
                    obs::flight::kCompiledIn
                        ? obs::flight::defaultDumpPath().c_str()
                        : "(flight recorder compiled out)");
        std::fflush(stdout);
        COTERIE_ASSERT(false, "injected by COTERIE_INJECT_ASSERT");
    }

    // 3. Optional chaos pass: the same session under a scripted fault
    //    plan with the resilience layer on (see DESIGN.md §9).
    if (std::getenv("COTERIE_CHAOS") != nullptr) {
        const double ms = seconds * 1000.0;
        sim::FaultPlan plan;
        plan.lossBurst(0.15 * ms, 0.45 * ms, 0.35)
            .latencySpike(0.15 * ms, 0.45 * ms, 4.0)
            .bandwidthCollapse(0.50 * ms, 0.75 * ms, 0.08)
            .outage(0.80 * ms, 0.84 * ms);
        net::ResilienceParams rp;
        rp.enabled = true;
        const SystemResult chaos = session->runCoterieChaos(plan, rp);
        double stallMs = 0.0;
        std::uint64_t degraded = 0, retries = 0;
        for (const PlayerMetrics &m : chaos.players) {
            stallMs += m.stallMs;
            degraded += m.framesDegraded;
            retries += m.netRetries;
        }
        std::printf("\nchaos pass (scripted loss burst + bandwidth "
                    "collapse + outage):\n");
        std::printf("  %-14s %8.1f FPS, %.0f ms frozen, %llu degraded "
                    "frames, %llu retries\n",
                    chaos.systemName.c_str(), chaos.avgFps(), stallMs,
                    static_cast<unsigned long long>(degraded),
                    static_cast<unsigned long long>(retries));
    }

    if (!traceBase.empty()) {
        const std::string tracePath = traceBase + ".trace.json";
        const std::string metricsPath = traceBase + ".metrics.json";
        if (!obs::flight::kCompiledIn) {
            std::printf("\nflight recorder compiled out "
                        "(COTERIE_FLIGHT=OFF): no trace written\n");
        } else if (const long events =
                       obs::flight::stopCapture(tracePath);
                   events >= 0) {
            std::printf("\nwrote %s (%ld events; open in Perfetto or "
                        "run trace_report)\n",
                        tracePath.c_str(), events);
        } else {
            std::printf("\ncould not write %s\n", tracePath.c_str());
        }
        if (obs::MetricsRegistry::global().writeJson(metricsPath))
            std::printf("wrote %s\n", metricsPath.c_str());
        else
            std::printf("could not write %s\n", metricsPath.c_str());
    }
    return 0;
}
