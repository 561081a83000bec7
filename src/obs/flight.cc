#include "obs/flight.hh"

#if COTERIE_FLIGHT_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "obs/clock.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/thread_annotations.hh"

namespace coterie::obs::flight {
namespace {

/**
 * One per-thread ring. Single writer (the owning thread); readers
 * snapshot `head` with acquire and walk backwards. The slot being
 * written while a dump reads it may be torn — dump() drops any event
 * with a null name, which every half-written slot has until the final
 * store publishes it.
 *
 * Capture state: `spilledTo` is the index of the first event not yet
 * preserved for the active capture (startCapture() sets it to the
 * head; everything below it is either spilled or predates the
 * capture). The owner spills before it would overwrite index
 * `spilledTo`, so while a capture is active every captured event is
 * either in `spill` or still in the ring at [spilledTo, head).
 */
struct Ring
{
    std::atomic<std::uint64_t> head{0}; ///< events ever written
    int slot = 0;                       ///< obs thread slot, dump tid
    FlightEvent events[kRingCapacity];

    support::Mutex spillMutex{"flight::Ring::spillMutex"};
    /// Written under spillMutex; the owner's fast path reads it
    /// relaxed (a stale value is only ever smaller: slow path).
    std::atomic<std::uint64_t> spilledTo{0};
    // Grows by one kRingCapacity block per spill and is bounded by
    // one capture window: stopCapture() drains it and startCapture()
    // clears it.
    std::vector<FlightEvent> spill COTERIE_GUARDED_BY(spillMutex);
};

struct Registry
{
    support::Mutex mutex{"flight::Registry::mutex"};
    std::vector<Ring *> rings COTERIE_GUARDED_BY(mutex);
    std::set<std::string> internPool COTERIE_GUARDED_BY(mutex);
};

Registry &
registry()
{
    // Leaked: rings may be written (and the panic hook may dump)
    // during static destruction.
    static Registry *r = new Registry();
    return *r;
}

std::vector<Ring *>
allRings()
{
    Registry &reg = registry();
    support::MutexLock lock(reg.mutex);
    return reg.rings;
}

std::atomic<bool> g_capturing{false};

// Raw pointer on purpose: trivially-destructible TLS, so threads
// exiting during process teardown never run user code.
thread_local Ring *t_ring = nullptr;

Ring &
ring()
{
    if (t_ring == nullptr) {
        auto *r = new Ring(); // leaked alongside the registry
        r->slot = threadSlot();
        {
            Registry &reg = registry();
            support::MutexLock lock(reg.mutex);
            reg.rings.push_back(r);
        }
        t_ring = r;
        installPanicDump();
    }
    return *t_ring;
}

/** Called by the owner before slot @p idx overwrites captured event
 *  `idx - kRingCapacity`: copy the whole ring, [idx - kRingCapacity,
 *  idx), oldest first into the spill list. */
void
spillBlock(Ring &r, std::uint64_t idx)
{
    support::MutexLock lock(r.spillMutex);
    if (!g_capturing.load(std::memory_order_relaxed) ||
        idx < r.spilledTo.load(std::memory_order_relaxed) + kRingCapacity)
        return; // capture ended, or raced with startCapture()
    for (std::uint64_t i = idx - kRingCapacity; i < idx; ++i)
        r.spill.push_back(r.events[i % kRingCapacity]);
    r.spilledTo.store(idx, std::memory_order_relaxed);
}

void
write(const FlightEvent &e)
{
    Ring &r = ring();
    const std::uint64_t idx = r.head.load(std::memory_order_relaxed);
    if (g_capturing.load(std::memory_order_relaxed) &&
        idx >= r.spilledTo.load(std::memory_order_relaxed) + kRingCapacity)
        spillBlock(r, idx);
    r.events[idx % kRingCapacity] = e;
    r.head.store(idx + 1, std::memory_order_release);
}

/** One thread's events, oldest first, as handed to the writer. */
struct ThreadEvents
{
    int slot = 0;
    std::vector<FlightEvent> events;
};

/** Append @p r's ring events [@p from, head) that are still retained
 *  and published. */
void
appendRetained(const Ring &r, std::uint64_t from,
               std::vector<FlightEvent> &out)
{
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t oldest =
        head > kRingCapacity ? head - kRingCapacity : 0;
    for (std::uint64_t i = std::max(from, oldest); i < head; ++i) {
        const FlightEvent &e = r.events[i % kRingCapacity];
        if (e.name != nullptr) // unwritten or torn slot
            out.push_back(e);
    }
}

Json
metadataEvent(const char *name, int pid, int tid,
              const std::string &label)
{
    Json args = Json::object();
    args.set("name", Json(label));
    Json m = Json::object();
    m.set("ph", Json("M"));
    m.set("name", Json(name));
    m.set("pid", Json(pid));
    if (tid >= 0)
        m.set("tid", Json(tid));
    m.set("args", std::move(args));
    return m;
}

/**
 * The Chrome trace_event writer every dump and capture goes through.
 * pid 1 holds wall-clock events (spans, instants, counters, wall-only
 * hops) by obs thread slot; pid 2 holds the sim-timeline frame events
 * by client id, with sim milliseconds as trace microseconds.
 */
bool
writeChromeTrace(const std::string &path,
                 const std::vector<ThreadEvents> &threads)
{
    // Wall timestamps are exported relative to the earliest event so
    // every trace lines up at t=0.
    std::uint64_t epochNs = UINT64_MAX;
    for (const ThreadEvents &t : threads)
        for (const FlightEvent &e : t.events)
            if (e.wallBeginNs > 0)
                epochNs = std::min(epochNs, e.wallBeginNs);
    if (epochNs == UINT64_MAX)
        epochNs = 0;
    const auto relUs = [epochNs](std::uint64_t ns) {
        return ns >= epochNs
                   ? static_cast<double>(ns - epochNs) / 1000.0
                   : 0.0;
    };
    const auto simArg = [](Json &j, double simMs) {
        if (simMs >= 0.0) {
            Json args = Json::object();
            args.set("sim_ms", Json(simMs));
            j.set("args", std::move(args));
        }
    };

    Json traceEvents = Json::array();
    traceEvents.push(metadataEvent("process_name", 1, -1, "wall"));
    traceEvents.push(metadataEvent("process_name", 2, -1, "frames (sim)"));
    for (const ThreadEvents &t : threads) {
        traceEvents.push(metadataEvent(
            "thread_name", 1, t.slot,
            t.slot == 0 ? std::string("main/slot0")
                        : "slot" + std::to_string(t.slot)));
    }

    for (const ThreadEvents &t : threads) {
        for (const FlightEvent &e : t.events) {
            Json j = Json::object();
            switch (e.kind) {
            case EventKind::Span: {
                j.set("ph", Json("X"));
                j.set("name", Json(e.name));
                j.set("cat", Json(e.category ? e.category : "span"));
                j.set("pid", Json(1));
                j.set("tid", Json(t.slot));
                j.set("ts", Json(relUs(e.wallBeginNs)));
                j.set("dur",
                      Json(static_cast<double>(e.wallDurNs) / 1000.0));
                simArg(j, e.simBeginMs);
                break;
            }
            case EventKind::FrameHop: {
                j.set("ph", Json("X"));
                j.set("name", Json(e.name));
                j.set("cat", Json("frame"));
                // Wall-only hops (sim time unknown: cache lookups,
                // joins, renders inside one sim instant) render on the
                // wall timeline instead of the sim-frame timeline.
                const bool wallOnly = e.simBeginMs < 0.0;
                j.set("pid", Json(wallOnly ? 1 : 2));
                j.set("tid", Json(wallOnly
                                      ? t.slot
                                      : static_cast<int>(e.client)));
                if (wallOnly) {
                    j.set("ts", Json(relUs(e.wallBeginNs)));
                    j.set("dur",
                          Json(static_cast<double>(e.wallDurNs) /
                               1000.0));
                } else {
                    j.set("ts", Json(e.simBeginMs * 1000.0));
                    j.set("dur", Json(e.simDurMs * 1000.0));
                }
                Json args = Json::object();
                args.set("label", Json(e.label ? e.label : ""));
                args.set("client", Json(static_cast<int>(e.client)));
                args.set("frame", Json(e.frame));
                if (e.wallDurNs > 0)
                    args.set("wall_us",
                             Json(static_cast<double>(e.wallDurNs) /
                                  1000.0));
                j.set("args", std::move(args));
                break;
            }
            case EventKind::FrameDone: {
                j.set("ph", Json("i"));
                j.set("name", Json("frame.done"));
                j.set("cat", Json("frame"));
                j.set("pid", Json(2));
                j.set("tid", Json(static_cast<int>(e.client)));
                j.set("ts", Json(e.simBeginMs * 1000.0));
                j.set("s", Json("t"));
                Json args = Json::object();
                args.set("label", Json(e.label ? e.label : ""));
                args.set("client", Json(static_cast<int>(e.client)));
                args.set("frame", Json(e.frame));
                args.set("latency_ms", Json(e.value));
                args.set("budget_ms", Json(e.value2));
                args.set("miss", Json(e.value > e.value2));
                args.set("critical_path",
                         Json(e.critical ? e.critical : ""));
                j.set("args", std::move(args));
                break;
            }
            case EventKind::Instant: {
                j.set("ph", Json("i"));
                j.set("name", Json(e.name));
                j.set("cat", Json(e.category ? e.category : "flight"));
                j.set("pid", Json(1));
                j.set("tid", Json(t.slot));
                j.set("ts", Json(relUs(e.wallBeginNs)));
                j.set("s", Json("t"));
                simArg(j, e.simBeginMs);
                break;
            }
            case EventKind::Counter: {
                j.set("ph", Json("C"));
                j.set("name", Json(e.name));
                j.set("pid", Json(1));
                j.set("tid", Json(t.slot));
                j.set("ts", Json(relUs(e.wallBeginNs)));
                Json args = Json::object();
                args.set("value", Json(e.value));
                j.set("args", std::move(args));
                break;
            }
            }
            traceEvents.push(std::move(j));
        }
    }

    Json out = Json::object();
    out.set("displayTimeUnit", Json("ms"));
    out.set("traceEvents", std::move(traceEvents));

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = out.dump(1);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

void
panicDump()
{
    const std::string path = defaultDumpPath();
    // The process is aborting: write straight to stderr, the logging
    // machinery may be the thing that panicked.
    std::fprintf(stderr, // lint:allow(no-direct-console-io)
                 "[flight] dumping %zu events to %s\n", eventCount(),
                 path.c_str());
    dump(path);
}

} // namespace

void
recordSpan(const char *name, const char *category,
           std::uint64_t beginNs, std::uint64_t endNs, double simMs)
{
    FlightEvent e;
    e.kind = EventKind::Span;
    e.name = name;
    e.category = category;
    e.wallBeginNs = beginNs;
    e.wallDurNs = endNs >= beginNs ? endNs - beginNs : 0;
    e.simBeginMs = simMs;
    write(e);
}

void
recordFrameHop(const char *name, const char *label,
               std::uint32_t session, std::uint16_t client,
               std::uint64_t frame, double simBeginMs, double simDurMs,
               std::uint64_t wallBeginNs, std::uint64_t wallDurNs)
{
    FlightEvent e;
    e.kind = EventKind::FrameHop;
    e.name = name;
    e.category = "frame";
    e.label = label;
    e.session = session;
    e.client = client;
    e.frame = frame;
    e.simBeginMs = simBeginMs;
    e.simDurMs = simDurMs;
    e.wallBeginNs = wallBeginNs;
    e.wallDurNs = wallDurNs;
    write(e);
}

void
recordFrameDone(const char *label, std::uint32_t session,
                std::uint16_t client, std::uint64_t frame, double simMs,
                double latencyMs, double budgetMs,
                const char *criticalPath)
{
    FlightEvent e;
    e.kind = EventKind::FrameDone;
    e.name = "frame.done";
    e.category = "frame";
    e.label = label;
    e.session = session;
    e.client = client;
    e.frame = frame;
    e.simBeginMs = simMs;
    e.value = latencyMs;
    e.value2 = budgetMs;
    e.critical = criticalPath;
    write(e);
}

void
recordInstant(const char *name, const char *category, double simMs)
{
    FlightEvent e;
    e.kind = EventKind::Instant;
    e.name = name;
    e.category = category;
    e.wallBeginNs = monotonicNowNs();
    e.simBeginMs = simMs;
    write(e);
}

void
recordCounter(const char *name, double value)
{
    if (!g_capturing.load(std::memory_order_relaxed))
        return;
    FlightEvent e;
    e.kind = EventKind::Counter;
    e.name = name;
    e.category = "counter";
    e.wallBeginNs = monotonicNowNs();
    e.value = value;
    write(e);
}

bool
capturing()
{
    return g_capturing.load(std::memory_order_relaxed);
}

void
startCapture()
{
    // Arm first, then move every ring's window up to its head: a spill
    // racing this loop is serialised by spillMutex and either lands
    // before the reset (and is cleared) or sees the new window. Rings
    // created later start at spilledTo = 0, so all of their events are
    // inside the capture.
    g_capturing.store(true, std::memory_order_release);
    for (Ring *r : allRings()) {
        support::MutexLock lock(r->spillMutex);
        r->spill = {};
        r->spilledTo.store(r->head.load(std::memory_order_acquire),
                           std::memory_order_relaxed);
    }
}

long
stopCapture(const std::string &path)
{
    if (!g_capturing.load(std::memory_order_acquire))
        return -1;
    // Collect while the capture is still active: an owner about to
    // overwrite an unspilled event blocks on spillMutex, so
    // [spilledTo, head) cannot be recycled under us.
    std::vector<ThreadEvents> threads;
    std::size_t count = 0;
    for (Ring *r : allRings()) {
        ThreadEvents t;
        t.slot = r->slot;
        {
            support::MutexLock lock(r->spillMutex);
            t.events = std::exchange(r->spill, {});
            appendRetained(*r, r->spilledTo.load(std::memory_order_relaxed),
                           t.events);
        }
        count += t.events.size();
        threads.push_back(std::move(t));
    }
    g_capturing.store(false, std::memory_order_release);
    if (!writeChromeTrace(path, threads))
        return -1;
    return static_cast<long>(count);
}

const char *
intern(const std::string &s)
{
    Registry &reg = registry();
    support::MutexLock lock(reg.mutex);
    return reg.internPool.insert(s).first->c_str();
}

std::size_t
eventCount()
{
    std::size_t total = 0;
    for (const Ring *r : allRings()) {
        const std::uint64_t head =
            r->head.load(std::memory_order_acquire);
        total += head < kRingCapacity ? head : kRingCapacity;
    }
    return total;
}

bool
dump(const std::string &path)
{
    std::vector<ThreadEvents> threads;
    for (const Ring *r : allRings()) {
        ThreadEvents t;
        t.slot = r->slot;
        appendRetained(*r, 0, t.events);
        threads.push_back(std::move(t));
    }
    return writeChromeTrace(path, threads);
}

std::string
defaultDumpPath()
{
    // Dump-path config only — never feeds simulation state.
    if (const char *env = // lint:allow(no-wallclock-rng)
        std::getenv("COTERIE_FLIGHT_DUMP"))
        if (*env != '\0')
            return env;
    return "coterie.flight.json";
}

void
installPanicDump()
{
    static std::atomic<bool> installed{false};
    if (!installed.exchange(true, std::memory_order_acq_rel))
        setPanicHook(&panicDump);
}

void
dumpOnEpisodeBoundary()
{
    // Opt-in trigger only — never feeds simulation state.
    if (std::getenv( // lint:allow(no-wallclock-rng)
            "COTERIE_FLIGHT_DUMP") != nullptr)
        dump(defaultDumpPath());
}

} // namespace coterie::obs::flight

#endif // COTERIE_FLIGHT_ENABLED
