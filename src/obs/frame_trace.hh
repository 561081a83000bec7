/**
 * @file
 * Frame-lifecycle causal tracing: every frame a client displays (and
 * every fetch that feeds one) is traced end to end through the
 * pipeline.
 *
 * A `FrameTraceContext` is minted at the client's frame request and
 * travels by value with the work: `Prefetcher` cover-set misses,
 * `net::Channel` transfers, `FrameServer` fan-out and backlog,
 * `PanoramaRenderCache` lookups (including single-flight joins), the
 * codec, delivery, and merge/display. Each stage stamps a `Hop` — a
 * sim-time interval plus a wall-clock timestamp — via
 * `FrameTracer::hop()`. Every hop and every frame completion is
 * recorded live into the flight recorder (obs/flight.hh) as a
 * sim-timeline event (pid 2, one track per client); the rings are the
 * only copy of the per-hop detail, and all `trace_report --frames`
 * needs — from a capture or a crash dump alike.
 *
 * The tracer itself keeps only the records still in flight, each
 * reduced to per-hop-family sim totals. When a record completes, the
 * tracer computes its critical path (the hop family with the largest
 * total sim-time; a frame dominated by `StallWait` descends into the
 * dominant hop of its linked fetch, yielding paths like
 * `"stall_wait/transfer"`), scores frames against the deadline budget
 * (`DeadlineTracker`), and retires the record; aborted records are
 * retired unscored.
 *
 * `finish()` (end of a session run) publishes the SLO summary to
 * `SloRegistry::global()` under the session label.
 *
 * Determinism: the tracer is observe-only and all exported values are
 * sim-time derived. Records are created and completed from the serial
 * event loop; the mutex exists because pano-cache renders may stamp a
 * session's contexts from pool threads, not to order writers.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "obs/slo.hh"
#include "support/thread_annotations.hh"

namespace coterie::obs {

/** One causal stage of a frame's lifecycle. */
enum class Hop : std::uint8_t {
    Request,     ///< client issues an on-demand frame request
    Prefetch,    ///< prefetcher issues a cover-set miss fetch
    PipeWait,    ///< queued behind earlier requests on the client pipe
    Backlog,     ///< queued in the server fan-out backlog
    Transfer,    ///< on the wire (one hop per retry attempt)
    CacheLookup, ///< panorama cache hit
    CacheJoin,   ///< joined an in-flight render (single-flight)
    Render,      ///< server-side panorama render
    Codec,       ///< encode on the server
    Decode,      ///< decode on the client
    Sync,        ///< frame-interval sync wait
    StallWait,   ///< client stalled waiting for a delivery
    Merge,       ///< merge near/far layers for display
    Display,     ///< display scan-out
};

/** Number of Hop enumerators (array sizing). */
inline constexpr std::size_t kHopCount =
    static_cast<std::size_t>(Hop::Display) + 1;

/** Lower-case hop name: "request", "stall_wait", ... */
const char *hopName(Hop hop);

/** Trace-event name: "frame.request", "frame.stall_wait", ... (static
 *  literals, safe to store in flight-recorder events). */
const char *hopEventName(Hop hop);

class FrameTracer;

/**
 * The causal identity that travels with a frame's work: which tracer
 * owns the record, which session/client/frame it is, how many hops
 * have been stamped so far, and (once completed) its dominant hop.
 * 32 bytes, cheap to copy; a default-constructed (or tracer-less)
 * context is inert and every operation on it is a no-op, so
 * un-traced call paths need no branches.
 */
struct FrameTraceContext
{
    FrameTracer *tracer = nullptr;
    std::uint32_t session = 0;
    std::uint16_t client = 0;
    std::uint64_t frame = 0;   ///< frame number (or fetch sequence)
    std::uint32_t recordId = 0;
    std::uint8_t hops = 0;     ///< hop counter (stamped so far)
    std::int8_t dominant = -1; ///< dominant Hop, set by complete()

    bool active() const { return tracer != nullptr; }

    /** Stamp a hop spanning [beginMs, endMs] sim-time. */
    void hop(Hop h, double beginMs, double endMs);

    /**
     * Stamp a hop that is wall-clock work inside one sim instant
     * (server-side cache lookups, single-flight joins, actual
     * renders): no sim-time attribution, so it never enters the
     * sim-side critical path, but the wall interval is kept for
     * forensics.
     */
    void hopWall(Hop h, std::uint64_t wallBeginNs,
                 std::uint64_t wallEndNs);
};

static_assert(sizeof(FrameTraceContext) == 32,
              "the context travels by value with every hop");

/**
 * Per-session-run tracker of in-flight causal frame records. One
 * instance per `runSplitSystem` invocation; `label` keys the
 * published SLO summary (`<game>/<N>p/<system>`).
 */
class FrameTracer
{
  public:
    /** What a record traces. */
    enum class Kind : std::uint8_t {
        Fetch, ///< one frame fetch: request -> delivery
        Frame, ///< one displayed frame: schedule -> display
    };

    FrameTracer(std::string label, double budgetMs = kFrameBudgetMs);

    FrameTracer(const FrameTracer &) = delete;
    FrameTracer &operator=(const FrameTracer &) = delete;

    const std::string &label() const { return label_; }

    /** Mint a new causal record; the returned context travels with
     *  the work. @p nowMs is the sim time of the originating event. */
    FrameTraceContext mint(Kind kind, std::uint16_t client,
                           std::uint64_t frame, double nowMs);

    /** Stamp a hop (sim interval + wall stamp) into the flight rings
     *  and, while @p ctx's record is in flight, its sim totals;
     *  increments the context's hop counter. No-op when inert. */
    void hop(FrameTraceContext &ctx, Hop h, double beginMs,
             double endMs);

    /** Stamp a wall-only hop (see FrameTraceContext::hopWall) into
     *  the flight rings; it touches no record. */
    void hopWall(FrameTraceContext &ctx, Hop h,
                 std::uint64_t wallBeginNs, std::uint64_t wallEndNs);

    /** Link a displayed frame to the completed fetch whose delivery
     *  unblocked it (copies `fetchCtx.dominant`), so critical paths
     *  can descend through the stall. */
    void link(const FrameTraceContext &frameCtx,
              const FrameTraceContext &fetchCtx);

    /** What complete() measured. */
    struct Completion
    {
        double latencyMs = 0.0;
        std::string criticalPath;
    };

    /**
     * Complete the in-flight record at sim time @p doneMs: latency
     * becomes `doneMs - mintedMs`, the critical path is computed,
     * Frame records are scored against the deadline and emit a flight
     * `done` event, `ctx.dominant` is set, and the record is retired.
     * Completing a record that is not in flight panics.
     */
    Completion complete(FrameTraceContext &ctx, double doneMs);

    /** Retire the record unscored (expired fetch, disconnect). */
    void abort(FrameTraceContext &ctx);

    /** End of run: publish the SLO summary to `SloRegistry::global()`
     *  under the label. */
    void finish();

    /** The deadline scoreboard (valid for the tracer's lifetime). */
    const DeadlineTracker &deadlines() const { return deadlines_; }

    /** Records minted and not yet completed or aborted. */
    std::size_t liveRecordCount() const;

  private:
    /** An in-flight record: what completion needs, nothing more. */
    struct LiveRecord
    {
        Kind kind;
        std::int8_t linkedDominant = -1; ///< linked fetch's dominant hop
        double mintedMs;
        /** Sim duration per hop family, summed in stamp order. */
        std::array<double, kHopCount> simTotals{};
    };

    std::string label_;
    const char *flightLabel_; ///< intern()-ed copy for ring events
    std::uint32_t sessionId_;

    mutable support::Mutex mutex_{"FrameTracer::mutex_"};
    std::uint32_t nextId_ COTERIE_GUARDED_BY(mutex_) = 0;
    std::unordered_map<std::uint32_t, LiveRecord> live_
        COTERIE_GUARDED_BY(mutex_);
    DeadlineTracker deadlines_ COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::obs
