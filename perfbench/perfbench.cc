/**
 * @file
 * The frame-budget benchmark: one fleet workload per process, driven
 * only through public entry points, printing every end-to-end metric
 * (untraced run) or every per-layer metric (traced run) with its unit,
 * and checking the simulated outputs for correctness.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--golden perfbench/golden.json] [--commit <id>]
 *             [--trace-out <spans.json>]
 *
 * perfbench/README.md documents each workload, each metric and its
 * unit; perfbench/run.py builds this program and is the command the
 * benchmark is run with. The last line of standard output is the
 * result object `{"correct", "attempted", "failed", "metrics"}`; the
 * exit code is non-zero when a correctness check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/fleet.hh"
#include "core/partitioner.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "render/renderer.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "trace/trajectory.hh"
#include "world/gen/generators.hh"

using namespace coterie;
using namespace coterie::core;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed at which the recorded golden values apply. */
constexpr std::uint64_t kDefaultSeed = 42;

/** One benchmark workload: a SessionManager fleet over one world. */
struct Workload
{
    const char *name;
    world::gen::GameId game;
    int sessions;
    int players;
    double durationS;
    /** Two sessions per traceSeed ("popular routes"), else unique. */
    bool popularRoutes;
    bool renderOnFetch;
    /** Far-BE resolution: rendered on fetch, and by the traced run's
     *  single-thread render probe. */
    int renderW;
    int renderH;
};

const Workload kWorkloads[] = {
    {"fleet_shared", world::gen::GameId::Viking, 32, 4, 8.0, true, true,
     64, 32},
    // No renders happen here; the traced run's render probe uses the
    // fleet's default far-BE resolution (FleetSessionSpec).
    {"des_fleet", world::gen::GameId::Viking, 128, 2, 60.0, false, false,
     96, 48},
};

/** Critical paths the SLO attribution is reported for, with their
 *  metric-name spelling; misses on any other path are summed under
 *  "other". */
const std::pair<const char *, const char *> kMissPaths[] = {
    {"stall_wait/pipe_wait", "stall_wait.pipe_wait"},
    {"stall_wait/transfer", "stall_wait.transfer"},
    {"render", "render"},
};

/** Distinct far-BE panoramas the traced run renders single-thread:
 *  enough for ten samples beyond the reported p99. */
constexpr std::size_t kRenderProbePanoramas = 1000;

/** Set-ups timed per run (the median is reported). */
constexpr int kMinSetups = 3;

// --- Inputs derived from the seed -------------------------------------

/**
 * The game world is the same at every seed, as a deployed game's map
 * is: the seed varies the players. Generated worlds differ by up to 2x
 * in render cost and 3x in deadline misses between world seeds, which
 * would swamp any change a run is meant to show.
 */
constexpr std::uint64_t kWorldSeed = 42;

/**
 * A workload's routes: the recorded player trajectories its sessions
 * play, traceSeed 1000 + route as in bench_fleet. Popular-route
 * workloads have two sessions per route.
 */
int
routeCount(const Workload &w)
{
    return w.popularRoutes ? (w.sessions + 1) / 2 : w.sessions;
}

std::uint64_t
routeTraceSeed(int route)
{
    return 1000 + static_cast<std::uint64_t>(route);
}

/** When and on which route one session of the fleet arrives. */
struct Arrival
{
    std::uint64_t traceSeed;
    double startMs;
};

/**
 * The seed's input: which route each session plays and at which phase
 * of the 60 Hz display clock it arrives. The default seed is
 * bench_fleet's schedule (session i on route i % routes, all at t = 0),
 * so fleet_shared reproduces its s32_p4 leg count for count; any other
 * seed shuffles the routes over the sessions and staggers arrivals
 * within one display tick. The set of routes is the same at every seed:
 * a route's deadline misses depend mostly on how fast it crosses grid
 * cells, and per-route miss counts differ by up to 70x, so drawing new
 * routes per seed would make the QoE metrics a sample of routes rather
 * than a measurement of the program.
 */
std::vector<Arrival>
arrivals(const Workload &w, std::uint64_t seed)
{
    std::vector<Arrival> out;
    for (int i = 0; i < w.sessions; ++i)
        out.push_back({routeTraceSeed(i % routeCount(w)), 0.0});
    if (seed == kDefaultSeed)
        return out;
    Rng rng(hashCombine(seed, 0xa441a1));
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1],
                  out[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
    for (Arrival &a : out)
        a.startMs = rng.uniform(0.0, 1000.0 / 60.0);
    return out;
}

// --- Spans recorded around the calls into each layer -------------------

struct Span
{
    std::string name;
    double beginS;
    double endS;
};

class SpanLog
{
  public:
    SpanLog() : epoch_(Clock::now()) {}

    template <typename Fn>
    double
    time(const std::string &name, Fn &&fn)
    {
        const double begin = secondsSince(epoch_);
        fn();
        const double end = secondsSince(epoch_);
        spans_.push_back({name, begin, end});
        return end - begin;
    }

    /** Chrome trace_event JSON of every span (complete events, us). */
    bool
    write(const std::string &path) const
    {
        obs::Json events = obs::Json::array();
        for (const Span &s : spans_) {
            obs::Json e = obs::Json::object();
            e.set("name", obs::Json(s.name));
            e.set("cat", obs::Json("perfbench"));
            e.set("ph", obs::Json("X"));
            e.set("pid", obs::Json(1));
            e.set("tid", obs::Json(1));
            e.set("ts", obs::Json(s.beginS * 1e6));
            e.set("dur", obs::Json((s.endS - s.beginS) * 1e6));
            events.push(std::move(e));
        }
        obs::Json doc = obs::Json::object();
        doc.set("displayTimeUnit", obs::Json("ms"));
        doc.set("traceEvents", std::move(events));
        std::ofstream out(path);
        out << doc.dump() << '\n';
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

// --- Fleet set-up and run ----------------------------------------------

/** A fleet that is set up and ready to run. The manager references the
 *  base session, so it is declared (and destroyed) after it. */
struct Fleet
{
    std::unique_ptr<Session> base;
    std::unique_ptr<SessionManager> mgr;
};

std::string
sessionLabel(const Workload &w, int i)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s.s%03d", w.name, i);
    return buf;
}

Fleet
setUpFleet(const Workload &w, std::uint64_t seed, bool renderOnFetch)
{
    FleetCapacity cap;
    cap.maxSessions = w.sessions;
    cap.maxClients = w.sessions * w.players;
    Fleet f;
    f.mgr = std::make_unique<SessionManager>(cap);

    SessionParams sp;
    sp.players = w.players;
    sp.durationS = w.durationS;
    sp.seed = kWorldSeed;
    sp.calibrateSimilarity = false; // the fleet never reads thresholds
    sp.frameStore.sharedPanoCache = f.mgr->panoCache();
    f.base = Session::create(w.game, sp);

    const std::vector<Arrival> plan = arrivals(w, seed);
    for (int i = 0; i < w.sessions; ++i) {
        FleetSessionSpec spec;
        spec.base = f.base.get();
        spec.traceSeed = plan[static_cast<std::size_t>(i)].traceSeed;
        spec.startMs = plan[static_cast<std::size_t>(i)].startMs;
        // Unique per session: SloRegistry is last-write-wins per label.
        spec.label = sessionLabel(w, i);
        spec.recordFrameLog = true;
        spec.renderOnFetch = renderOnFetch;
        spec.renderWidth = w.renderW;
        spec.renderHeight = w.renderH;
        const AdmissionDecision d = f.mgr->submit(std::move(spec));
        if (d.verdict != AdmissionVerdict::Admitted) {
            std::fprintf(stderr, "perfbench: session %d not admitted: %s\n",
                         i, d.reason);
            std::exit(2);
        }
    }
    return f;
}

/** Simulated outcome of one fleet run: what the checks compare. */
struct SimSummary
{
    std::uint64_t events = 0;
    std::uint64_t frames = 0;    ///< logged (displayed) frames
    std::uint64_t attempted = 0; ///< frames the sessions were due
    std::uint64_t lost = 0;      ///< due but never shown (fault/evict)
    std::uint64_t misses = 0;    ///< logged frames over budget
    std::uint64_t degraded = 0;
    std::uint64_t deliveries = 0; ///< megaframes fetched by players
    /** renderOnFetch requests: one per delivery when rendering. */
    std::uint64_t renderRequests = 0;
    std::uint64_t renders = 0; ///< pano-cache misses
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheJoins = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0; ///< governor session evictions
    std::uint64_t incomplete = 0; ///< sessions not Completed
    double horizonMs = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double avgFps = 0.0;
    double beMbps = 0.0;
    // client / frame cache / net layers
    std::uint64_t stalls = 0;
    double stallMs = 0.0;
    std::uint64_t fetches = 0;
    std::uint64_t transitions = 0;
    std::uint64_t frameCacheLookups = 0;
    std::uint64_t frameCacheHits = 0;
    double channelUtilMbps = 0.0;
    double netDelayMs = 0.0;
    double frameKb = 0.0;
    // SLO registry (per-session labels)
    std::uint64_t sloLabels = 0;
    std::uint64_t sloFrames = 0;
    std::uint64_t sloMisses = 0;
    std::map<std::string, std::uint64_t> missesByPath;
    std::string digest;

    double
    hitRatio() const
    {
        const double served =
            static_cast<double>(cacheHits + renders + cacheJoins);
        return served > 0.0 ? (served - static_cast<double>(renders)) /
                                  served
                            : 0.0;
    }
};

/** FNV-1a over the bytes of trivially copyable values. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

SimSummary
summarize(const Workload &w, const FleetResult &fleet,
          std::uint64_t events)
{
    SimSummary s;
    s.events = events;
    s.horizonMs = fleet.horizonMs;
    s.renders = fleet.panoCache.misses;
    s.cacheHits = fleet.panoCache.hits;
    s.cacheJoins = fleet.panoCache.inflightJoins;
    s.cacheEvictions = fleet.panoCache.evictions;
    s.faults = fleet.faults;
    s.evictions = fleet.evictions;

    const double tickMs = 1000.0 / 60.0;
    const auto due = static_cast<std::uint64_t>(
        w.players * std::floor(w.durationS * 1000.0 / tickMs));
    SampleSet latencies;
    Digest digest;
    double fps = 0.0;
    double be = 0.0;
    double delay = 0.0;
    double kb = 0.0;
    std::uint64_t playerCount = 0;
    for (const FleetSessionReport &r : fleet.sessions) {
        digest.add(r.id);
        digest.add(static_cast<std::uint8_t>(r.phase));
        s.renderRequests += r.fleetRenders;
        fps += r.result.avgFps();
        s.channelUtilMbps += r.result.channelUtilMbps;
        std::uint64_t logged = 0;
        for (const auto &log : r.result.frameLogs) {
            logged += log.size();
            for (const FrameLogEntry &e : log) {
                latencies.add(e.latencyMs);
                if (e.latencyMs > obs::kFrameBudgetMs)
                    ++s.misses;
                if (e.degraded)
                    ++s.degraded;
                digest.add(e.displayMs);
                digest.add(e.latencyMs);
                digest.add(e.renderMs);
                digest.add(e.bytesFetched);
                digest.add(e.degraded);
            }
        }
        s.frames += logged;
        if (r.phase == SessionPhase::Completed) {
            s.attempted += logged;
        } else {
            ++s.incomplete;
            s.attempted += std::max(logged, due);
            s.lost += std::max(logged, due) - logged;
        }
        for (const PlayerMetrics &p : r.result.players) {
            be += p.beMbps;
            delay += p.netDelayMs;
            kb += p.frameKb;
            ++playerCount;
            s.stalls += p.stalls;
            s.stallMs += p.stallMs;
            s.fetches += p.framesFetched;
            s.transitions += p.gridTransitions;
            s.frameCacheLookups += p.cacheStats.lookups;
            s.frameCacheHits += p.cacheStats.hits;
        }
    }
    const auto sessions = static_cast<double>(fleet.sessions.size());
    const double players = static_cast<double>(std::max<std::uint64_t>(
        playerCount, 1));
    s.deliveries = s.fetches;
    s.avgFps = fps / sessions;
    s.channelUtilMbps /= sessions;
    s.beMbps = be / players;
    s.netDelayMs = delay / players;
    s.frameKb = kb / players;
    if (!latencies.empty()) {
        s.p50 = latencies.percentile(50.0);
        s.p99 = latencies.percentile(99.0);
        s.p999 = latencies.percentile(99.9);
    }
    s.digest = digest.hex();

    // Per-session SLO summaries: one label per session of this fleet.
    const std::string prefix = std::string(w.name) + ".s";
    const obs::Json slo = obs::SloRegistry::global().snapshotJson();
    for (const auto &[label, summary] : slo.members()) {
        if (label.compare(0, prefix.size(), prefix) != 0)
            continue;
        ++s.sloLabels;
        s.sloFrames += static_cast<std::uint64_t>(
            summary.at("frames").asNumber());
        s.sloMisses += static_cast<std::uint64_t>(
            summary.at("misses").asNumber());
        for (const auto &[path, count] :
             summary.at("misses_by_hop").members())
            s.missesByPath[path] +=
                static_cast<std::uint64_t>(count.asNumber());
    }
    return s;
}

/** Everything the exact checks compare, as one JSON object. */
obs::Json
simJson(const SimSummary &s)
{
    obs::Json j = obs::Json::object();
    j.set("events", obs::Json(s.events));
    j.set("frames", obs::Json(s.frames));
    j.set("deliveries", obs::Json(s.deliveries));
    j.set("renders", obs::Json(s.renders));
    j.set("misses", obs::Json(s.misses));
    j.set("degraded", obs::Json(s.degraded));
    j.set("horizon_ms", obs::Json(s.horizonMs));
    j.set("p50_ms", obs::Json(s.p50));
    j.set("p99_ms", obs::Json(s.p99));
    j.set("p999_ms", obs::Json(s.p999));
    j.set("digest", obs::Json(s.digest));
    return j;
}

struct RunTiming
{
    double setupS = 0.0;
    double runS = 0.0;
};

/** Set up and run the workload's fleet once. */
SimSummary
runFleetOnce(const Workload &w, std::uint64_t seed, bool renderOnFetch,
             SpanLog &spans, RunTiming &timing)
{
    Fleet f;
    timing.setupS = spans.time("setup", [&] {
        f = setUpFleet(w, seed, renderOnFetch);
    });
    obs::SloRegistry::global().clear();
    FleetResult result;
    timing.runS = spans.time(renderOnFetch ? "fleet.run"
                                           : "fleet.run_norender",
                             [&] { result = f.mgr->run(); });
    return summarize(w, result, f.mgr->queue().executedEvents());
}

// --- Checks ------------------------------------------------------------

class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            std::printf("CHECK FAILED: %s\n", what.c_str());
            failed_ = true;
        }
    }

    template <typename A, typename B>
    void
    expectEq(const A &got, const B &want, const std::string &what)
    {
        if (!(got == want)) {
            std::ostringstream msg;
            msg << what << ": got " << got << ", expected " << want;
            expect(false, msg.str());
        }
    }

    bool ok() const { return !failed_; }

  private:
    bool failed_ = false;
};

/** Invariants that hold at every seed. */
void
checkInvariants(const Workload &w, const SimSummary &s, Checks &checks)
{
    const std::string n = w.name;
    checks.expectEq(s.faults, 0u, n + " session faults");
    checks.expectEq(s.evictions, 0u, n + " governor evictions");
    checks.expectEq(s.incomplete, 0u, n + " sessions not completed");
    checks.expect(s.frames > 0, n + " displayed no frames");
    checks.expect(s.deliveries > 0, n + " delivered no megaframes");
    checks.expectEq(s.sloLabels, static_cast<std::uint64_t>(w.sessions),
                    n + " distinct SLO labels");
    checks.expectEq(s.sloFrames, s.frames,
                    n + " SLO frames vs frame-log frames");
    checks.expectEq(s.sloMisses, s.misses,
                    n + " SLO misses vs frame-log misses");
    if (w.renderOnFetch) {
        checks.expectEq(s.renderRequests, s.deliveries,
                        n + " render requests vs deliveries");
        checks.expect(s.renders > 0, n + " rendered nothing");
        checks.expect(s.renders <= s.deliveries,
                      n + " rendered more panoramas than it delivered");
    } else {
        checks.expectEq(s.renders, 0u, n + " renders with rendering off");
    }
    if (w.popularRoutes)
        checks.expect(s.hitRatio() > 0.0,
                      n + " shows no cross-session sharing");
}

/** Two runs of the same inputs must agree exactly. */
void
checkSame(const Workload &w, const SimSummary &a, const SimSummary &b,
          const char *what, Checks &checks)
{
    checks.expectEq(simJson(b).dump(), simJson(a).dump(),
                    std::string(w.name) + " " + what);
}

obs::Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return obs::Json();
    std::stringstream text;
    text << in.rdbuf();
    return obs::Json::parse(text.str());
}

/** At the default seed: the recorded values, exactly. */
void
checkGolden(const Workload &w, const SimSummary &s,
            const std::string &goldenPath, Checks &checks)
{
    const obs::Json golden = readJsonFile(goldenPath);
    const obs::Json &want = golden.at(w.name);
    checks.expect(want.isObject(), "no golden values for " +
                                       std::string(w.name) + " in " +
                                       goldenPath);
    if (!want.isObject())
        return;
    const obs::Json got = simJson(s);
    for (const auto &[key, value] : want.members())
        checks.expectEq(got.at(key).dump(), value.dump(),
                        std::string(w.name) + " golden " + key);

    // fleet_shared is bench_fleet's s32_p4 leg: same counts.
    if (std::strcmp(w.name, "fleet_shared") == 0) {
        const obs::Json fleet = readJsonFile("results/BENCH_fleet.json");
        const obs::Json &leg = fleet.at("points").at("s32_p4");
        if (leg.isObject()) {
            checks.expectEq(s.deliveries,
                            static_cast<std::uint64_t>(
                                leg.at("deliveries").asNumber()),
                            "fleet_shared deliveries vs BENCH_fleet s32_p4");
            checks.expectEq(s.renders,
                            static_cast<std::uint64_t>(
                                leg.at("renders").asNumber()),
                            "fleet_shared renders vs BENCH_fleet s32_p4");
            checks.expectEq(s.events,
                            static_cast<std::uint64_t>(
                                leg.at("events").asNumber()),
                            "fleet_shared events vs BENCH_fleet s32_p4");
        }
    }
}

/**
 * The render probe's cells and resolution do not depend on the seed, so
 * its pixels must match the recorded digest at every seed.
 */
void
checkRenderGolden(const Workload &w, const std::string &digest,
                  const std::string &goldenPath, Checks &checks)
{
    const obs::Json golden = readJsonFile(goldenPath);
    const obs::Json &want = golden.at("render_probe").at(w.name);
    checks.expectEq(digest, want.isString() ? want.asString() : "(none)",
                    std::string(w.name) + " render probe pixel digest");
}

// --- Metrics output ----------------------------------------------------

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        std::printf("  %-34s %18.6f %s\n", name.c_str(), value, unit);
        obs::Json m = obs::Json::object();
        m.set("value", obs::Json(value));
        m.set("unit", obs::Json(unit));
        json_.set(name, std::move(m));
    }

    obs::Json take() { return std::move(json_); }

  private:
    obs::Json json_ = obs::Json::object();
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole > 0 ? 100.0 * static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

// --- The traced run's per-layer probes ---------------------------------

std::vector<trace::SessionTrace>
generateRouteTraces(const Workload &w, const world::VirtualWorld &world)
{
    const world::gen::GameInfo &info = world::gen::gameInfo(w.game);
    std::vector<trace::SessionTrace> traces;
    for (int r = 0; r < routeCount(w); ++r) {
        trace::TrajectoryParams tp;
        tp.players = w.players;
        tp.durationS = w.durationS;
        tp.seed = routeTraceSeed(r);
        traces.push_back(trace::generateTrace(info, world, tp));
    }
    return traces;
}

struct RenderProbe
{
    SampleSet panoMs;
    std::map<std::string, double> stageMsPerPano;
    std::string digest; ///< of every probe panorama's pixels
};

const char *const kStages[] = {"dirs", "raycast", "terrain", "shade",
                               "sky"};

double
stageTimerSumMs(const char *stage)
{
    const std::string name =
        std::string("render.stage.") + stage + "_ms";
    return obs::MetricsRegistry::global().timer(name).snapshot().stats.sum();
}

/**
 * Single-thread far-BE renders of the workload's own cell
 * representatives: the grid cells its routes pass through, resolved by
 * FrameStore::farBeLookup exactly as a fleet delivery is, spread evenly
 * over the route order, at the workload's resolution.
 */
RenderProbe
probeRenders(const Workload &w, const Session &base,
             const std::vector<trace::SessionTrace> &traces,
             SpanLog &spans)
{
    const world::GridMap &grid = base.grid();
    std::vector<FrameStore::FarBeLookup> lookups;
    std::unordered_set<PanoKey, PanoKeyHash> seen;
    for (const trace::SessionTrace &t : traces)
        for (const trace::PlayerTrace &p : t.players)
            for (const trace::TracePoint &pt : p.points) {
                const world::GridPoint g = grid.snap(pt.position);
                FrameStore::FarBeLookup l = base.frames().farBeLookup(
                    grid.position(g), 0.0, w.renderW, w.renderH);
                if (seen.insert(l.key).second)
                    lookups.push_back(l);
            }
    const std::size_t n = std::min(kRenderProbePanoramas, lookups.size());

    RenderProbe probe;
    Digest pixels;
    double before[std::size(kStages)];
    for (std::size_t i = 0; i < std::size(kStages); ++i)
        before[i] = stageTimerSumMs(kStages[i]);
    const render::Renderer renderer(base.world());
    spans.time("render.probe", [&] {
        for (std::size_t i = 0; i < n; ++i) {
            const FrameStore::FarBeLookup &l =
                lookups[i * lookups.size() / n];
            render::RenderOptions opts;
            opts.layer = render::DepthLayer::farBe(l.cutoff);
            opts.threads = 1;
            opts.stageTimers = true;
            const auto t0 = Clock::now();
            const image::Image img = renderer.renderPanorama(
                base.world().eyePosition(l.rep), w.renderW, w.renderH,
                opts);
            probe.panoMs.add(secondsSince(t0) * 1000.0);
            pixels.add(img.width());
            pixels.add(img.height());
            for (const image::Rgb &px : img.pixels())
                pixels.add(px);
        }
    });
    probe.digest = pixels.hex();
    for (std::size_t i = 0; i < std::size(kStages); ++i)
        probe.stageMsPerPano[kStages[i]] =
            ratio(stageTimerSumMs(kStages[i]) - before[i],
                  static_cast<double>(n));
    return probe;
}

// --- Command line ------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string golden;
    std::string commit = "unknown";
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<fleet_shared|des_fleet> --seed <n> "
                 "--seconds <s> --trace <0|1> [--golden <file>] "
                 "[--commit <id>] [--trace-out <file>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            o.workload = value;
        else if (arg == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            o.trace = std::atoi(value.c_str());
        else if (arg == "--golden")
            o.golden = value;
        else if (arg == "--commit")
            o.commit = value;
        else if (arg == "--trace-out")
            o.traceOut = value;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (o.trace != 0 && o.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

obs::Json
hostFacts(const Options &o)
{
    obs::Json h = obs::Json::object();
    h.set("hardware_concurrency",
          obs::Json(static_cast<std::uint64_t>(
              std::thread::hardware_concurrency())));
    h.set("pool_size", obs::Json(static_cast<std::uint64_t>(
                           support::ThreadPool::instance().concurrency())));
    h.set("build_type", obs::Json(PERFBENCH_BUILD_TYPE));
    h.set("sanitize", obs::Json(PERFBENCH_SANITIZE));
    h.set("simd", obs::Json(COTERIE_SIMD_ENABLED != 0));
    h.set("telemetry", obs::Json(COTERIE_TELEMETRY_ENABLED != 0));
    h.set("commit", obs::Json(o.commit));
    return h;
}

/** Median wall seconds of @p n calls of @p fn, each recorded as a span. */
template <typename Fn>
double
medianSeconds(SpanLog &spans, const std::string &name, int n, Fn &&fn)
{
    std::vector<double> samples;
    for (int i = 0; i < n; ++i)
        samples.push_back(spans.time(name, fn));
    return median(std::move(samples));
}

void
printSamples(const char *what, const std::vector<double> &v)
{
    std::printf("%s:", what);
    for (const double x : v)
        std::printf(" %.5f", x);
    std::printf("\n");
}

/**
 * The untraced run: set up and run the fleet again and again while the
 * run's time lasts, and report end-to-end metrics. Wall times are
 * medians over the repetitions; the simulated results of every
 * repetition must agree exactly.
 */
SimSummary
untracedRun(const Workload &w, const Options &opt, SpanLog &spans,
            Metrics &metrics, Checks &checks)
{
    const auto start = Clock::now();
    SimSummary sim;
    std::vector<double> setupS;
    std::vector<double> wallPerSimS;
    double repS = 0.0;
    do {
        const auto repStart = Clock::now();
        RunTiming t;
        const SimSummary s =
            runFleetOnce(w, opt.seed, w.renderOnFetch, spans, t);
        if (setupS.empty())
            sim = s;
        else
            checkSame(w, sim, s, "repeat run differs", checks);
        setupS.push_back(t.setupS);
        wallPerSimS.push_back(t.runS / (s.horizonMs / 1000.0));
        repS = secondsSince(repStart);
    } while (secondsSince(start) + repS <= opt.seconds);
    while (static_cast<int>(setupS.size()) < kMinSetups) {
        Fleet f;
        setupS.push_back(spans.time("setup", [&] {
            f = setUpFleet(w, opt.seed, w.renderOnFetch);
        }));
    }
    std::printf("sim %s\n", simJson(sim).dump().c_str());
    printSamples("set-up s", setupS);
    printSamples("wall s per sim s", wallPerSimS);

    metrics.add("setup_s", median(setupS), "s");
    metrics.add("wall_per_sim_s", median(wallPerSimS), "s/s");
    metrics.add("peak_rss_mb", peakRssMb(), "MB");
    metrics.add("frames", static_cast<double>(sim.frames), "count");
    metrics.add("frame_latency_p50_ms", sim.p50, "sim_ms");
    metrics.add("frame_latency_p99_ms", sim.p99, "sim_ms");
    metrics.add("frame_latency_p999_ms", sim.p999, "sim_ms");
    metrics.add("deadline_miss_pct",
                pct(sim.misses + sim.lost, sim.attempted), "%");
    metrics.add("degraded_frame_pct", pct(sim.degraded, sim.attempted),
                "%");
    metrics.add("avg_fps", sim.avgFps, "fps");
    metrics.add("be_mbps_per_player", sim.beMbps, "Mbps");
    return sim;
}

/**
 * The traced run: spans around each public set-up call, one fleet run,
 * a single-thread render probe, and the same fleet replayed with
 * rendering off; reports the per-layer metrics.
 */
SimSummary
tracedRun(const Workload &w, const Options &opt, SpanLog &spans,
          Metrics &metrics, Checks &checks)
{
    const auto start = Clock::now();
    const world::gen::GameInfo &info = world::gen::gameInfo(w.game);
    std::optional<world::VirtualWorld> made;
    const double worldS =
        medianSeconds(spans, "setup.world", kMinSetups, [&] {
            made.emplace(world::gen::makeWorld(w.game, kWorldSeed));
        });
    const world::VirtualWorld &world = *made;
    PartitionParams part;
    part.seed = hashCombine(kWorldSeed, 0x9a97); // as Session::create
    part.reachable = world::gen::makeReachability(info, world);
    const double partitionS =
        medianSeconds(spans, "setup.partition", kMinSetups, [&] {
            (void)partitionWorld(world, device::pixel2(), part);
        });
    std::vector<trace::SessionTrace> traces;
    const double tracesS =
        medianSeconds(spans, "setup.traces", kMinSetups,
                      [&] { traces = generateRouteTraces(w, world); });

    // The first fleet run gives the simulated per-layer counts, and its
    // base session the render probe's cells.
    std::vector<double> wallPerSimS;
    Fleet f;
    spans.time("setup", [&] {
        f = setUpFleet(w, opt.seed, w.renderOnFetch);
    });
    obs::SloRegistry::global().clear();
    FleetResult result;
    const double runS =
        spans.time("fleet.run", [&] { result = f.mgr->run(); });
    const SimSummary sim =
        summarize(w, result, f.mgr->queue().executedEvents());
    std::printf("sim %s\n", simJson(sim).dump().c_str());
    const double eventsPerWallS = static_cast<double>(sim.events) / runS;
    wallPerSimS.push_back(runS / (sim.horizonMs / 1000.0));
    const RenderProbe probe = probeRenders(w, *f.base, traces, spans);
    f.mgr.reset();
    f.base.reset();
    std::printf("render {\"panoramas\":%zu,\"digest\":\"%s\"}\n",
                probe.panoMs.count(), probe.digest.c_str());
    if (!opt.golden.empty())
        checkRenderGolden(w, probe.digest, opt.golden, checks);

    // The same fleet without rendering (des_fleet never renders).
    std::vector<double> norenderWallPerSimS;
    if (w.renderOnFetch) {
        RunTiming t;
        SimSummary plain = runFleetOnce(w, opt.seed, false, spans, t);
        norenderWallPerSimS.push_back(t.runS / (plain.horizonMs / 1000.0));
        // Rendering on fetch is observe-only: same frames and events.
        plain.renders = sim.renders;
        checkSame(w, sim, plain, "frames differ with rendering off",
                  checks);
    }

    // More traced runs while the run's time lasts.
    double repS = 0.0;
    while (secondsSince(start) + repS <= opt.seconds) {
        const auto repStart = Clock::now();
        RunTiming t;
        const SimSummary s =
            runFleetOnce(w, opt.seed, w.renderOnFetch, spans, t);
        checkSame(w, sim, s, "repeat run differs", checks);
        wallPerSimS.push_back(t.runS / (s.horizonMs / 1000.0));
        repS = secondsSince(repStart);
    }
    printSamples("traced wall s per sim s", wallPerSimS);
    if (!w.renderOnFetch)
        norenderWallPerSimS = wallPerSimS;

    metrics.add("setup.world_s", worldS, "s");
    metrics.add("setup.partition_s", partitionS, "s");
    metrics.add("setup.traces_s", tracesS, "s");
    metrics.add("render.far_be_ms.p50", probe.panoMs.percentile(50.0),
                "ms");
    metrics.add("render.far_be_ms.p99", probe.panoMs.percentile(99.0),
                "ms");
    for (const char *stage : kStages)
        metrics.add(std::string("render.stage.") + stage + "_ms",
                    probe.stageMsPerPano.at(stage), "ms");
    metrics.add("sim.events", static_cast<double>(sim.events), "count");
    metrics.add("sim.events_per_wall_s", eventsPerWallS, "1/s");
    metrics.add("sim.traced_wall_per_sim_s", median(wallPerSimS), "s/s");
    metrics.add("sim.norender_wall_per_sim_s", median(norenderWallPerSimS),
                "s/s");
    metrics.add("fleet.deliveries", static_cast<double>(sim.deliveries),
                "count");
    metrics.add("pano_cache.hits", static_cast<double>(sim.cacheHits),
                "count");
    metrics.add("pano_cache.misses", static_cast<double>(sim.renders),
                "count");
    metrics.add("pano_cache.joins", static_cast<double>(sim.cacheJoins),
                "count");
    metrics.add("pano_cache.evictions",
                static_cast<double>(sim.cacheEvictions), "count");
    metrics.add("pano_cache.hit_ratio", sim.hitRatio(), "ratio");
    metrics.add("pano_cache.renders_per_frame",
                ratio(static_cast<double>(sim.renders),
                      static_cast<double>(sim.deliveries)),
                "ratio");
    metrics.add("client.stalls", static_cast<double>(sim.stalls), "count");
    metrics.add("client.stall_ms_per_frame",
                ratio(sim.stallMs, static_cast<double>(sim.frames)),
                "sim_ms");
    metrics.add("client.fetches_per_transition",
                ratio(static_cast<double>(sim.fetches),
                      static_cast<double>(sim.transitions)),
                "ratio");
    metrics.add("frame_cache.hit_ratio",
                ratio(static_cast<double>(sim.frameCacheHits),
                      static_cast<double>(sim.frameCacheLookups)),
                "ratio");
    metrics.add("net.channel_util_mbps", sim.channelUtilMbps, "Mbps");
    metrics.add("net.delay_ms", sim.netDelayMs, "sim_ms");
    metrics.add("net.frame_kb", sim.frameKb, "KB");
    std::uint64_t listed = 0;
    for (const auto &[path, name] : kMissPaths) {
        const auto it = sim.missesByPath.find(path);
        const std::uint64_t n = it != sim.missesByPath.end() ? it->second : 0;
        listed += n;
        metrics.add(std::string("slo.miss_share.") + name,
                    ratio(static_cast<double>(n),
                          static_cast<double>(sim.sloMisses)),
                    "ratio");
    }
    metrics.add("slo.miss_share.other",
                ratio(static_cast<double>(sim.sloMisses - listed),
                      static_cast<double>(sim.sloMisses)),
                "ratio");
    for (const auto &[path, n] : sim.missesByPath)
        std::printf("miss path %s: %llu\n", path.c_str(),
                    static_cast<unsigned long long>(n));
    if (!opt.traceOut.empty() && !spans.write(opt.traceOut))
        std::printf("perfbench: could not write %s\n", opt.traceOut.c_str());
    return sim;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload *w = findWorkload(opt.workload);
    if (w == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    // Debug and sanitizer builds are a different program; never time
    // them.
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if ((buildType != "Release" && buildType != "RelWithDebInfo") ||
        std::strlen(PERFBENCH_SANITIZE) != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a '%s' build "
                     "(sanitize '%s'); build Release\n",
                     buildType.c_str(), PERFBENCH_SANITIZE);
        return 2;
    }

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w->name,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace);
    std::printf("host %s\n", hostFacts(opt).dump().c_str());
    std::fflush(stdout);

    Checks checks;
    SpanLog spans;
    Metrics metrics;
    const SimSummary sim =
        opt.trace == 0 ? untracedRun(*w, opt, spans, metrics, checks)
                       : tracedRun(*w, opt, spans, metrics, checks);
    checkInvariants(*w, sim, checks);
    if (opt.seed == kDefaultSeed && !opt.golden.empty())
        checkGolden(*w, sim, opt.golden, checks);

    obs::Json out = obs::Json::object();
    out.set("correct", obs::Json(checks.ok()));
    out.set("attempted", obs::Json(sim.attempted));
    out.set("failed", obs::Json(sim.lost));
    out.set("metrics", metrics.take());
    std::printf("%s\n", out.dump().c_str());
    return checks.ok() ? 0 : 1;
}
