/**
 * @file
 * Flight recorder: the one event pipeline of coterie-scope. Fixed-size,
 * lock-free, per-thread ring buffers of compact binary events, written
 * out as Chrome trace_event JSON (Perfetto / chrome://tracing /
 * tools/trace_report) by a single writer.
 *
 * The recorder is always armed: every `COTERIE_SPAN` scope, every
 * frame-tracer hop and completion, and every instant drops one
 * fixed-size POD event into the calling thread's ring. Each ring is
 * single-writer (its owning thread) with a release-published head, so
 * the steady-state cost is two clock reads plus one 96-byte store and
 * recording never takes a lock. Rings are leaked intentionally
 * (trivially-destructible state, no TLS-teardown hazards) and overwrite
 * oldest-first, so the recorder always holds the last ~4096 events per
 * thread.
 *
 * The rings leave the process two ways, both through the same writer:
 *  - **Dumps** (crash forensics): the rings' retained events, written
 *    on `COTERIE_ASSERT` / `COTERIE_PANIC` failure (via the
 *    `support::setPanicHook` hook, installed on first use — this also
 *    covers lock-order validator panics), at `sim::FaultDriver` episode
 *    boundaries when `COTERIE_FLIGHT_DUMP` is set in the environment,
 *    and on explicit `flight::dump(path)` calls. `COTERIE_FLIGHT_DUMP=
 *    <path>` overrides the default dump path (`coterie.flight.json`). A
 *    dump taken while writers are live is best-effort: the one
 *    in-flight slot per ring may be torn and is dropped if implausible.
 *  - **Captures** (live traces): every event recorded between
 *    `startCapture()` and `stopCapture(path)`, however many. While a
 *    capture is active, a thread whose ring is about to overwrite an
 *    event recorded since the capture began first copies the ring's
 *    4096-event block into the ring's own spill list (one short lock
 *    per `kRingCapacity` events per thread; the fast path stays
 *    lock-free). Counter samples (`recordCounter`) are recorded only
 *    while a capture is active, so off-capture they cost one relaxed
 *    load and per-job tracks never push crash context out of a ring.
 *
 * Configuring with `-DCOTERIE_FLIGHT=OFF` compiles the recorder away:
 * every entry point below degrades to an inline no-op (a capture is
 * inert and writes nothing) and `libcoterie_obs` carries zero recorder
 * symbols (CI checks this with `nm`), mirroring the `COTERIE_TELEMETRY`
 * contract.
 *
 * Determinism: the recorder is observe-only. Nothing reads an event
 * back into simulation state, and `determinism_test` and the chaos
 * snapshots are bit-identical with the recorder ON or OFF, capturing
 * or not, at any `COTERIE_THREADS`.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace coterie::obs::flight {

/** Event kinds stored in the rings. */
enum class EventKind : std::uint8_t {
    Span = 0,     ///< wall-clock scope (COTERIE_SPAN)
    FrameHop = 1, ///< one causal hop of a frame record (sim timeline)
    FrameDone = 2, ///< frame completion: latency vs deadline budget
    Instant = 3,  ///< point event (fault boundaries, markers)
    Counter = 4,  ///< counter-track sample ("ph":"C"), captures only
};

/**
 * One ring slot. Plain-old-data on purpose: rings are leaked arrays
 * of these, written in place with no construction or destruction.
 * All `const char *` members must point at static literals or
 * `intern()`-ed strings (process lifetime) — never at stack or
 * short-lived heap storage.
 */
struct FlightEvent
{
    std::uint64_t wallBeginNs = 0;
    std::uint64_t wallDurNs = 0;
    double simBeginMs = -1.0; ///< < 0 -> no sim-time attribution
    double simDurMs = 0.0;
    double value = 0.0;  ///< FrameDone: latency_ms; Counter: sample
    double value2 = 0.0; ///< FrameDone: budget_ms
    const char *name = nullptr;
    const char *category = nullptr;
    const char *label = nullptr;    ///< session label (FrameHop/Done)
    const char *critical = nullptr; ///< FrameDone: critical-path string
    std::uint64_t frame = 0;
    std::uint32_t session = 0;
    std::uint16_t client = 0;
    EventKind kind = EventKind::Span;
};

#if COTERIE_FLIGHT_ENABLED

/** Compile-time switch, usable in `if constexpr`. */
inline constexpr bool kCompiledIn = true;

/** Events each per-thread ring retains (oldest overwritten first). */
inline constexpr std::size_t kRingCapacity = 4096;

/** Record a completed wall-clock span (ScopedSpan destructor). */
void recordSpan(const char *name, const char *category,
                std::uint64_t beginNs, std::uint64_t endNs,
                double simMs = -1.0);

/** Record one causal hop of a frame record (sim-time interval with
 *  wall-time attribution). @p name must be a static literal
 *  (`frame.<hop>`); @p label an intern()-ed session label. */
void recordFrameHop(const char *name, const char *label,
                    std::uint32_t session, std::uint16_t client,
                    std::uint64_t frame, double simBeginMs,
                    double simDurMs, std::uint64_t wallBeginNs,
                    std::uint64_t wallDurNs);

/** Record a frame completion scored against the deadline budget. */
void recordFrameDone(const char *label, std::uint32_t session,
                     std::uint16_t client, std::uint64_t frame,
                     double simMs, double latencyMs, double budgetMs,
                     const char *criticalPath);

/** Record a point event (fault episode boundaries, markers). */
void recordInstant(const char *name, const char *category,
                   double simMs = -1.0);

/** Record a counter-track sample iff a capture is active (one relaxed
 *  load otherwise). @p name must be a static literal. */
void recordCounter(const char *name, double value);

/** True while a capture is active: lets call sites skip gathering
 *  counter values nobody will record. */
bool capturing();

/**
 * Begin a capture: every event recorded from now until
 * `stopCapture()`, on any thread, is kept. Events recorded earlier
 * are excluded, and so is any previous capture's window.
 */
void startCapture();

/**
 * End the capture and write its events to @p path as Chrome
 * trace_event JSON (the dump schema). Returns the number of events
 * written, or -1 on I/O failure or when no capture was active.
 */
long stopCapture(const std::string &path);

/**
 * Copy @p s into the process-lifetime intern pool and return a stable
 * pointer, suitable for FlightEvent string members. Idempotent per
 * distinct content.
 */
const char *intern(const std::string &s);

/** Total events currently retained across all rings (best-effort). */
std::size_t eventCount();

/**
 * Write every ring's retained events as a Chrome trace_event JSON
 * document (wall spans, instants and counters under pid 1 by thread
 * slot, sim-timeline frame events under pid 2 by client). Returns
 * false on I/O failure.
 */
bool dump(const std::string &path);

/** The dump path crash/boundary dumps use: `$COTERIE_FLIGHT_DUMP` or
 *  `coterie.flight.json`. */
std::string defaultDumpPath();

/**
 * Install the panic-hook crash dump (idempotent). Called lazily on
 * first recorded event; call explicitly from binaries that want the
 * dump armed before any instrumentation fires.
 */
void installPanicDump();

/** FaultDriver episode-boundary trigger: dump to the default path iff
 *  `COTERIE_FLIGHT_DUMP` is set in the environment. */
void dumpOnEpisodeBoundary();

#else // flight recorder compiled out: inline no-ops, zero symbols

inline constexpr bool kCompiledIn = false;
inline constexpr std::size_t kRingCapacity = 0;

inline void
recordSpan(const char *, const char *, std::uint64_t, std::uint64_t,
           double = -1.0)
{
}

inline void
recordFrameHop(const char *, const char *, std::uint32_t, std::uint16_t,
               std::uint64_t, double, double, std::uint64_t,
               std::uint64_t)
{
}

inline void
recordFrameDone(const char *, std::uint32_t, std::uint16_t,
                std::uint64_t, double, double, double, const char *)
{
}

inline void
recordInstant(const char *, const char *, double = -1.0)
{
}

inline void
recordCounter(const char *, double)
{
}

inline bool
capturing()
{
    return false;
}

inline void
startCapture()
{
}

inline long
stopCapture(const std::string &)
{
    return -1;
}

inline const char *
intern(const std::string &)
{
    return "";
}

inline std::size_t
eventCount()
{
    return 0;
}

inline bool
dump(const std::string &)
{
    return false;
}

inline std::string
defaultDumpPath()
{
    return {};
}

inline void
installPanicDump()
{
}

inline void
dumpOnEpisodeBoundary()
{
}

#endif // COTERIE_FLIGHT_ENABLED

} // namespace coterie::obs::flight
