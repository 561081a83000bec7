/**
 * @file
 * coterie-scope trace spans: RAII wall-clock scopes recorded into the
 * flight recorder's per-thread rings (obs/flight.hh), the one event
 * pipeline behind crash dumps and live trace captures alike.
 *
 * `COTERIE_SPAN("render.panorama", "render")` opens a span that, on
 * scope exit, records one complete event with wall-clock begin and
 * duration (read only through obs/clock), the recording thread's slot
 * as `tid` and — when the call site attaches it — the simulation time
 * as a `sim_ms` arg, so wall-time spans can be correlated with
 * sim-time behaviour. A capture (`flight::startCapture()` /
 * `flight::stopCapture(path)`) writes every span in its window as a
 * Chrome trace_event "ph":"X" event, loadable in Perfetto and folded
 * by tools/trace_report.
 *
 * With `-DCOTERIE_TELEMETRY=OFF` the span macros compile away
 * entirely; with `-DCOTERIE_FLIGHT=OFF` spans skip even their clock
 * reads.
 *
 * Span taxonomy (see DESIGN.md §8): span names reuse the metric naming
 * scheme minus the unit suffix (`render.panorama`, `codec.encode`);
 * the category is the owning layer (`render`, `image`, `core`, `net`,
 * `support`).
 */

#pragma once

#include <cstdint>

#include "obs/clock.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"

namespace coterie::obs {

/**
 * Install the thread-pool telemetry bridge: `pool.*` metrics plus
 * queue-depth and worker-utilisation counter tracks (recorded while a
 * flight capture is active). Idempotent.
 */
void installPoolTelemetry();

#if COTERIE_TELEMETRY_ENABLED

/** RAII span: one flight-recorder span event per scope. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *category)
        : name_(name), category_(category)
    {
        if constexpr (flight::kCompiledIn)
            beginNs_ = monotonicNowNs();
    }

    ~ScopedSpan()
    {
        if constexpr (flight::kCompiledIn)
            flight::recordSpan(name_, category_, beginNs_,
                               monotonicNowNs(), simMs_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach simulated-time attribution to this span. */
    void simTimeMs(double ms) { simMs_ = ms; }

  private:
    const char *name_;
    const char *category_;
    std::uint64_t beginNs_ = 0;
    double simMs_ = -1.0;
};

#else // telemetry compiled out: spans are empty objects

class ScopedSpan
{
  public:
    ScopedSpan(const char *, const char *) {}
    void simTimeMs(double) {}
};

#endif // COTERIE_TELEMETRY_ENABLED

/** Anonymous span covering the enclosing scope. */
#define COTERIE_SPAN(name, category)                                         \
    [[maybe_unused]] ::coterie::obs::ScopedSpan COTERIE_OBS_CAT(             \
        coterieObsSpan_, __LINE__)(name, category)

/** Named span, for call sites that attach simTimeMs() or end early. */
#define COTERIE_NAMED_SPAN(var, name, category)                              \
    ::coterie::obs::ScopedSpan var(name, category)

} // namespace coterie::obs
