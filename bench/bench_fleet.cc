/**
 * @file
 * Fleet bench: N independent Coterie sessions multiplexed over one
 * SessionManager (shared DES, shared thread pool, shared world-keyed
 * panorama render cache). The repo's one fleet benchmark.
 *
 * Three legs:
 *
 *  - **Sweep** sessions x players: per point it reports megaframe
 *    deliveries, actual panorama renders (cache misses),
 *    renders/frame, shared-cache hit ratio, p99 frame latency, and
 *    the wall time of the whole fleet run. Sessions play distinct
 *    trajectories over one world, so the hit ratio is the honest
 *    cross-session sharing win, not self-similarity.
 *
 *  - **Thread sweep**: one sweep leg (smoke s8_p2, full s32_p4) re-run
 *    with the pool pinned at COTERIE_THREADS=1/2/4/8, reporting
 *    events/sec, wall seconds per simulated second and scaling against
 *    t=1 (DESIGN.md §12). The pool is sized once per process, so each
 *    point re-executes this binary in its internal `--sweep-child`
 *    mode. Every point must reproduce the leg's golden counts exactly:
 *    the determinism contract, pinned to recorded numbers.
 *
 *  - **Overload**: a mixed fleet (healthy sessions + hopeless ones on
 *    a collapsed cacheless link) under the load governor, showing the
 *    degradation ladder is monotone — shed and degrade transitions
 *    strictly precede every eviction, healthy sessions are untouched.
 *
 * `--smoke` shrinks the legs for CI; `--check` exits non-zero if a
 * robustness invariant breaks (sharing absent, ladder out of order, a
 * healthy session harmed), a leg leaves its golden counts wherever it
 * runs, or the pool is degenerate: on a hardware_concurrency <= 1
 * machine every thread-sweep point runs serial, and recording that as
 * a multi-core trajectory would poison the history. bench_history
 * gates the hit-ratio trajectory against results/BENCH_fleet.json.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.hh"
#include "core/fleet.hh"
#include "support/parallel.hh"

using namespace coterie;
using namespace coterie::bench;
using namespace coterie::core;

namespace {

/** Run shape per mode: `--smoke` shrinks every leg for CI. */
struct Mode
{
    bool smoke;
    double durationS;
    int renderW, renderH;
    int sweepSessions, sweepPlayers; ///< the thread-swept leg
};
constexpr Mode kFull{false, 8.0, 64, 32, 32, 4};
constexpr Mode kSmoke{true, 5.0, 48, 24, 8, 2};

std::string
legKey(int sessions, int players)
{
    return "s" + std::to_string(sessions) + "_p" + std::to_string(players);
}

struct SweepPoint
{
    int sessions = 0;
    int players = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t fetched = 0; // sum of every player's framesFetched
    std::uint64_t renders = 0; // shared-cache misses
    double hitRatio = 0.0;
    double rendersPerFrame = 0.0;
    double p99LatencyMs = 0.0;
    double avgFps = 0.0;
    double wallS = 0.0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;      // governor session evictions
    std::uint64_t cacheEvictions = 0; // shared-cache LRU evictions
    // Sim-engine throughput (DESIGN.md §12): executed DES events, the
    // rate they retire at, and wall seconds per simulated second.
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double wallPerSimS = 0.0;
};

/** One fleet run: N sessions with distinct trajectories, one world. */
SweepPoint
runSweepPoint(int sessions, int players, const Mode &mode)
{
    FleetCapacity cap;
    cap.maxSessions = sessions;
    cap.maxClients = sessions * players;
    SessionManager mgr(cap);

    // One preprocessed base per point, wired to the manager's shared
    // cache — the multi-tenant deployment shape. Similarity
    // calibration is skipped: the fleet path under test never reads
    // the thresholds it would tune.
    SessionParams sp;
    sp.players = players;
    sp.durationS = mode.durationS;
    sp.seed = 42;
    sp.calibrateSimilarity = false;
    sp.frameStore.sharedPanoCache = mgr.panoCache();
    const auto base = Session::create(world::gen::GameId::Viking, sp);

    // Popular-route model: each trajectory seed is played by (up to)
    // two sessions, so half the fleet revisits content another session
    // also renders — the cross-session analogue of the paper's
    // frame-similarity premise. A single session gets a unique seed.
    const int routes = (sessions + 1) / 2;
    for (int i = 0; i < sessions; ++i) {
        FleetSessionSpec spec;
        spec.base = base.get();
        spec.traceSeed = 1000 + static_cast<std::uint64_t>(i % routes);
        spec.recordFrameLog = true;
        spec.renderOnFetch = true;
        spec.renderWidth = mode.renderW;
        spec.renderHeight = mode.renderH;
        mgr.submit(spec);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const FleetResult fleet = mgr.run();
    const auto t1 = std::chrono::steady_clock::now();

    SweepPoint point;
    point.sessions = sessions;
    point.players = players;
    point.wallS = std::chrono::duration<double>(t1 - t0).count();
    point.faults = fleet.faults;
    point.evictions = fleet.evictions;
    point.cacheEvictions = fleet.panoCache.evictions;
    point.events = mgr.queue().executedEvents();
    point.eventsPerSec = point.wallS > 0.0
                             ? static_cast<double>(point.events) /
                                   point.wallS
                             : 0.0;
    point.wallPerSimS = fleet.horizonMs > 0.0
                            ? point.wallS / (fleet.horizonMs / 1000.0)
                            : 0.0;

    SampleSet latencies;
    double fps = 0.0;
    for (const FleetSessionReport &s : fleet.sessions) {
        point.deliveries += s.fleetRenders;
        fps += s.result.avgFps();
        for (const auto &player : s.result.players)
            point.fetched += player.framesFetched;
        for (const auto &log : s.result.frameLogs)
            for (const FrameLogEntry &e : log)
                latencies.add(e.latencyMs);
    }
    point.avgFps = fps / static_cast<double>(fleet.sessions.size());
    point.p99LatencyMs = latencies.empty() ? 0.0 : latencies.percentile(99);
    point.renders = fleet.panoCache.misses;
    const double served =
        static_cast<double>(fleet.panoCache.hits + fleet.panoCache.misses);
    point.hitRatio =
        served > 0.0 ? (served - static_cast<double>(fleet.panoCache.misses)) /
                           served
                     : 0.0;
    point.rendersPerFrame =
        point.deliveries > 0
            ? static_cast<double>(point.renders) /
                  static_cast<double>(point.deliveries)
            : 0.0;
    return point;
}

obs::Json
toJson(const SweepPoint &p)
{
    obs::Json row = obs::Json::object();
    row.set("sessions", obs::Json(static_cast<std::uint64_t>(p.sessions)));
    row.set("players", obs::Json(static_cast<std::uint64_t>(p.players)));
    row.set("deliveries", obs::Json(p.deliveries));
    row.set("renders", obs::Json(p.renders));
    row.set("cache_evictions", obs::Json(p.cacheEvictions));
    row.set("hit_ratio", obs::Json(p.hitRatio));
    row.set("renders_per_frame", obs::Json(p.rendersPerFrame));
    row.set("p99_frame_latency_ms", obs::Json(p.p99LatencyMs));
    row.set("avg_fps", obs::Json(p.avgFps));
    row.set("wall_s", obs::Json(p.wallS));
    row.set("faults", obs::Json(p.faults));
    row.set("evictions", obs::Json(p.evictions));
    row.set("events", obs::Json(p.events));
    row.set("events_per_s", obs::Json(p.eventsPerSec));
    row.set("wall_per_sim_s", obs::Json(p.wallPerSimS));
    return row;
}

/**
 * Golden counts per leg and mode (executed DES events, frame
 * deliveries, shared-cache renders), checked wherever the leg runs:
 * in the sweep and at every thread-sweep point. Events and deliveries
 * were recorded from the serial event loop the lane engine replaced,
 * which the lane engine matched exactly. So were the renders, except
 * on the full 128x4 leg: its cache evicts, and the serial loop's
 * inline cache accesses gave its LRU a different history (56546
 * renders), so that renders golden is the lane engine's own count.
 */
struct LegGolden
{
    const char *key;
    bool smoke;
    std::uint64_t events, deliveries, renders;
};
constexpr LegGolden kGoldens[] = {
    {"s8_p2", true, 11274, 2548, 1273},
    {"s32_p4", false, 189722, 26600, 13042},
    {"s128_p4", false, 848894, 115688, 56522},
};

/**
 * False, with a CHECK FAILED line, if @p p has a golden in this mode
 * and leaves it. Every delivery is one client fetch, so the players'
 * summed framesFetched must equal the deliveries golden too.
 */
bool
matchesGolden(const std::string &key, bool smoke, const SweepPoint &p)
{
    for (const LegGolden &g : kGoldens) {
        if (g.smoke != smoke || key != g.key)
            continue;
        if (p.events == g.events && p.deliveries == g.deliveries &&
            p.fetched == g.deliveries && p.renders == g.renders)
            return true;
        const auto u = [](std::uint64_t v) {
            return static_cast<unsigned long long>(v);
        };
        std::printf("  CHECK FAILED: %s diverged from the golden counts "
                    "(events %llu vs %llu, deliveries %llu vs %llu, "
                    "fetched %llu vs %llu, renders %llu vs %llu)\n",
                    key.c_str(), u(p.events), u(g.events),
                    u(p.deliveries), u(g.deliveries), u(p.fetched),
                    u(g.deliveries), u(p.renders), u(g.renders));
        return false;
    }
    return true;
}

/** Prefix of the result row a `--sweep-child` prints on stdout. */
constexpr char kRowTag[] = "SWEEP_ROW ";

/** Child mode: run the thread-swept leg, print its row, check it. */
int
sweepChildMain(const Mode &mode)
{
    const SweepPoint p =
        runSweepPoint(mode.sweepSessions, mode.sweepPlayers, mode);
    std::printf("%s%s\n", kRowTag, toJson(p).dump().c_str());
    return matchesGolden(legKey(p.sessions, p.players), mode.smoke, p)
               ? 0
               : 1;
}

struct SweepChild
{
    bool ok = false; ///< exited 0 with a row: the golden check passed
    obs::Json row;   ///< the child's toJson() row, if it printed one
};

/**
 * Run one thread-sweep point: re-execute this binary as a
 * `--sweep-child` with COTERIE_THREADS set in the environment it
 * inherits. The child is /proc/self/exe spawned without a shell, so
 * no path is ever parsed as command text. This process's own pool was
 * sized at start-up and ignores the variable. Child lines other than
 * the row (its check failures) are echoed.
 */
SweepChild
runSweepChild(int threads, bool smoke)
{
    SweepChild out;
    int fds[2];
    if (::pipe(fds) != 0)
        return out;
    ::setenv("COTERIE_THREADS", std::to_string(threads).c_str(), 1);
    char self[] = "bench_fleet", child[] = "--sweep-child",
         smokeFlag[] = "--smoke";
    char *args[] = {self, child, smoke ? smokeFlag : nullptr, nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions,
                                 nullptr, args, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        std::printf("  cannot spawn a sweep child: %s\n",
                    std::strerror(rc));
        return out;
    }
    if (std::FILE *in = ::fdopen(fds[0], "r")) {
        char line[4096];
        while (std::fgets(line, sizeof line, in)) {
            if (std::strncmp(line, kRowTag, sizeof kRowTag - 1) == 0)
                out.row = obs::Json::parse(line + sizeof kRowTag - 1);
            else
                std::fputs(line, stdout);
        }
        std::fclose(in);
    } else {
        ::close(fds[0]); // the child's writes fail instead of blocking
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    out.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
             out.row.isObject();
    return out;
}

/** The governed overload fleet: healthy + hopeless sessions. */
struct OverloadOutcome
{
    std::uint64_t shed = 0;
    std::uint64_t degrade = 0;
    std::uint64_t evictions = 0;
    int healthy = 0;
    int healthyCompleted = 0;
    int hopeless = 0;
    double firstEvictionMs = -1.0;
};

OverloadOutcome
runOverload(double durationS)
{
    GovernorParams gov;
    gov.enabled = true;
    gov.tickMs = 250.0;
    gov.shedMissRate = 0.05;
    gov.degradeMissRate = 0.15;
    gov.evictMissRate = 0.50;
    gov.evictStrikes = 3;
    gov.recoverMissRate = 0.01;
    SessionManager mgr({}, gov);

    SessionParams sp;
    sp.players = 2;
    sp.durationS = durationS;
    sp.seed = 42;
    sp.calibrateSimilarity = false;
    sp.frameStore.sharedPanoCache = mgr.panoCache();
    const auto base = Session::create(world::gen::GameId::Viking, sp);

    OverloadOutcome out;
    out.healthy = 4;
    out.hopeless = 2;
    for (int i = 0; i < out.healthy; ++i) {
        FleetSessionSpec spec;
        spec.base = base.get();
        spec.traceSeed = 2000 + static_cast<std::uint64_t>(i);
        mgr.submit(spec);
    }
    for (int i = 0; i < out.hopeless; ++i) {
        FleetSessionSpec spec;
        spec.base = base.get();
        spec.traceSeed = 3000 + static_cast<std::uint64_t>(i);
        spec.withCache = false;
        spec.faults.bandwidthCollapse(1000.0, durationS * 1000.0, 0.01);
        mgr.submit(spec);
    }

    const FleetResult fleet = mgr.run();
    out.shed = fleet.shedTransitions;
    out.degrade = fleet.degradeTransitions;
    out.evictions = fleet.evictions;
    for (int i = 0; i < out.healthy; ++i)
        if (fleet.sessions[static_cast<std::size_t>(i)].phase ==
            SessionPhase::Completed)
            ++out.healthyCompleted;
    for (const FleetSessionReport &s : fleet.sessions)
        if (s.phase == SessionPhase::Evicted &&
            (out.firstEvictionMs < 0.0 ||
             s.finishedAtMs < out.firstEvictionMs))
            out.firstEvictionMs = s.finishedAtMs;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool check = false;
    bool sweepChild = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--sweep-child") == 0)
            sweepChild = true;
    }
    const Mode &mode = smoke ? kSmoke : kFull;
    if (sweepChild)
        return sweepChildMain(mode);

    banner("Fleet — N coteries on one manager: sharing, overload, "
           "isolation", "multi-session robustness; DESIGN.md §11");

    // Sizes the pool before runSweepChild sets COTERIE_THREADS.
    const int poolLanes = support::ThreadPool::instance().concurrency();
    const unsigned hardware = std::thread::hardware_concurrency();
    std::printf("  pool lanes %d, hardware_concurrency %u\n", poolLanes,
                hardware);
    bool ok = true;
    if (hardware <= 1) {
        std::printf("  *** %s: degenerate pool (hardware_concurrency "
                    "%u): every thread-sweep point runs serial, so its "
                    "wall times do not compare with multi-core runs "
                    "***\n",
                    check ? "CHECK FAILED" : "WARNING", hardware);
        ok = false;
    }

    const std::vector<int> sessionCounts =
        smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 8, 32, 128};
    const std::vector<int> playerCounts =
        smoke ? std::vector<int>{2} : std::vector<int>{2, 4};

    std::printf("\n  %8s %7s | %9s %8s %9s %8s %10s %8s %7s\n",
                "sessions", "players", "frames", "renders", "rend/frm",
                "hit", "p99_lat_ms", "fps", "wall_s");

    obs::Json points = obs::Json::object();
    for (const int players : playerCounts) {
        for (const int sessions : sessionCounts) {
            const SweepPoint p = runSweepPoint(sessions, players, mode);
            std::printf("  %8d %7d | %9llu %8llu %9.3f %7.1f%% %10.2f "
                        "%8.2f %7.2f\n",
                        p.sessions, p.players,
                        static_cast<unsigned long long>(p.deliveries),
                        static_cast<unsigned long long>(p.renders),
                        p.rendersPerFrame, 100.0 * p.hitRatio,
                        p.p99LatencyMs, p.avgFps, p.wallS);
            std::fflush(stdout);

            const std::string key = legKey(sessions, players);
            ok = matchesGolden(key, smoke, p) && ok;
            points.set(key, toJson(p));

            // Ungoverned fleets never evict or fault, deliveries flow,
            // and sibling trajectories over one world must share: past
            // one session the cache serves a real fraction of renders.
            if (p.faults != 0 || p.evictions != 0) {
                std::printf("  CHECK FAILED: %s saw %llu faults / %llu "
                            "evictions in an ungoverned fleet\n",
                            key.c_str(),
                            static_cast<unsigned long long>(p.faults),
                            static_cast<unsigned long long>(p.evictions));
                ok = false;
            }
            if (p.deliveries == 0 || p.p99LatencyMs <= 0.0) {
                std::printf("  CHECK FAILED: %s made no progress\n",
                            key.c_str());
                ok = false;
            }
            if (sessions > 1 &&
                (p.hitRatio <= 0.0 || p.rendersPerFrame >= 1.0)) {
                std::printf("  CHECK FAILED: %s shows no cross-session "
                            "sharing (hit %.3f, renders/frame %.3f)\n",
                            key.c_str(), p.hitRatio, p.rendersPerFrame);
                ok = false;
            }
        }
    }

    // Thread sweep: the same leg at 1/2/4/8 pool lanes. Every point
    // must match the golden counts; only the wall clock moves.
    const std::string sweepKey =
        legKey(mode.sweepSessions, mode.sweepPlayers);
    std::printf("\n  thread sweep: %s at COTERIE_THREADS=1/2/4/8\n",
                sweepKey.c_str());
    obs::Json threadSweep = obs::Json::object();
    threadSweep.set("leg", obs::Json(sweepKey));
    double t1WallS = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
        std::fflush(stdout);
        const SweepChild c = runSweepChild(threads, smoke);
        if (!c.ok) {
            std::printf("  CHECK FAILED: %s at COTERIE_THREADS=%d\n",
                        sweepKey.c_str(), threads);
            ok = false;
        }
        if (!c.row.isObject())
            continue;
        const double wallS = c.row.at("wall_s").asNumber();
        if (threads == 1)
            t1WallS = wallS;
        const double speedup = wallS > 0.0 ? t1WallS / wallS : 0.0;
        std::printf("    t=%d  %7.3fs  %9.0f events/s  %.3f wall-s per "
                    "sim-s  %.2fx vs t=1\n",
                    threads, wallS,
                    c.row.at("events_per_s").asNumber(),
                    c.row.at("wall_per_sim_s").asNumber(), speedup);
        obs::Json row = obs::Json::object();
        for (const char *k : {"wall_s", "events", "deliveries", "renders",
                              "events_per_s", "wall_per_sim_s"})
            row.set(k, c.row.at(k));
        row.set("speedup_vs_t1", obs::Json(speedup));
        threadSweep.set("t" + std::to_string(threads), std::move(row));
    }

    std::printf("\n  overload: 4 healthy + 2 hopeless sessions, "
                "governor on\n");
    const OverloadOutcome over = runOverload(mode.durationS);
    std::printf("    shed %llu -> degrade %llu -> evict %llu "
                "(first at %.0f ms); healthy completed %d/%d\n",
                static_cast<unsigned long long>(over.shed),
                static_cast<unsigned long long>(over.degrade),
                static_cast<unsigned long long>(over.evictions),
                over.firstEvictionMs, over.healthyCompleted,
                over.healthy);

    // Monotone ladder: every evicted session entered shed and degrade
    // first (entries into levels >= 1 / >= 2 are counted per session),
    // both hopeless sessions go, and no healthy session is harmed.
    if (over.evictions != static_cast<std::uint64_t>(over.hopeless)) {
        std::printf("  CHECK FAILED: expected %d evictions, saw %llu\n",
                    over.hopeless,
                    static_cast<unsigned long long>(over.evictions));
        ok = false;
    }
    if (over.shed < over.evictions || over.degrade < over.evictions) {
        std::printf("  CHECK FAILED: eviction without preceding "
                    "shed/degrade (shed %llu, degrade %llu)\n",
                    static_cast<unsigned long long>(over.shed),
                    static_cast<unsigned long long>(over.degrade));
        ok = false;
    }
    if (over.healthyCompleted != over.healthy) {
        std::printf("  CHECK FAILED: only %d/%d healthy sessions "
                    "completed under overload\n",
                    over.healthyCompleted, over.healthy);
        ok = false;
    }

    obs::Json overload = obs::Json::object();
    overload.set("healthy", obs::Json(static_cast<std::uint64_t>(
                                over.healthy)));
    overload.set("hopeless", obs::Json(static_cast<std::uint64_t>(
                                 over.hopeless)));
    overload.set("shed_transitions", obs::Json(over.shed));
    overload.set("degrade_transitions", obs::Json(over.degrade));
    overload.set("evictions", obs::Json(over.evictions));
    overload.set("first_eviction_ms", obs::Json(over.firstEvictionMs));
    overload.set("healthy_completed",
                 obs::Json(static_cast<std::uint64_t>(
                     over.healthyCompleted)));

    obs::Json doc = obs::Json::object();
    doc.set("game", obs::Json(std::string("viking")));
    doc.set("duration_s", obs::Json(mode.durationS));
    doc.set("smoke", obs::Json(smoke));
    doc.set("points", std::move(points));
    doc.set("thread_sweep", std::move(threadSweep));
    doc.set("overload", std::move(overload));
    writeBenchJson("fleet", doc);

    if (check && !ok)
        return 1;
    std::printf("\n  fleet checks: %s\n", ok ? "ok" : "FAILED");
    return 0;
}
