#include "obs/frame_trace.hh"

#include <atomic>

#include "obs/clock.hh"
#include "obs/flight.hh"
#include "support/logging.hh"

namespace coterie::obs {

const char *
hopName(Hop hop)
{
    switch (hop) {
      case Hop::Request:     return "request";
      case Hop::Prefetch:    return "prefetch";
      case Hop::PipeWait:    return "pipe_wait";
      case Hop::Backlog:     return "backlog";
      case Hop::Transfer:    return "transfer";
      case Hop::CacheLookup: return "cache_lookup";
      case Hop::CacheJoin:   return "cache_join";
      case Hop::Render:      return "render";
      case Hop::Codec:       return "codec";
      case Hop::Decode:      return "decode";
      case Hop::Sync:        return "sync";
      case Hop::StallWait:   return "stall_wait";
      case Hop::Merge:       return "merge";
      case Hop::Display:     return "display";
    }
    return "?";
}

const char *
hopEventName(Hop hop)
{
    switch (hop) {
      case Hop::Request:     return "frame.request";
      case Hop::Prefetch:    return "frame.prefetch";
      case Hop::PipeWait:    return "frame.pipe_wait";
      case Hop::Backlog:     return "frame.backlog";
      case Hop::Transfer:    return "frame.transfer";
      case Hop::CacheLookup: return "frame.cache_lookup";
      case Hop::CacheJoin:   return "frame.cache_join";
      case Hop::Render:      return "frame.render";
      case Hop::Codec:       return "frame.codec";
      case Hop::Decode:      return "frame.decode";
      case Hop::Sync:        return "frame.sync";
      case Hop::StallWait:   return "frame.stall_wait";
      case Hop::Merge:       return "frame.merge";
      case Hop::Display:     return "frame.display";
    }
    return "frame.?";
}

void
FrameTraceContext::hop(Hop h, double beginMs, double endMs)
{
    if (tracer != nullptr)
        tracer->hop(*this, h, beginMs, endMs);
}

void
FrameTraceContext::hopWall(Hop h, std::uint64_t wallBeginNs,
                           std::uint64_t wallEndNs)
{
    if (tracer != nullptr)
        tracer->hopWall(*this, h, wallBeginNs, wallEndNs);
}

FrameTracer::FrameTracer(std::string label, double budgetMs)
    : label_(std::move(label)), flightLabel_(flight::intern(label_)),
      deadlines_(budgetMs)
{
    // Distinguishes session runs in flight dumps (forensics only;
    // never exported into deterministic sim-side artifacts).
    static std::atomic<std::uint32_t> nextSession{1};
    sessionId_ = nextSession.fetch_add(1, std::memory_order_relaxed);
}

FrameTraceContext
FrameTracer::mint(Kind kind, std::uint16_t client, std::uint64_t frame,
                  double nowMs)
{
    FrameTraceContext ctx;
    ctx.tracer = this;
    ctx.session = sessionId_;
    ctx.client = client;
    ctx.frame = frame;

    support::MutexLock lock(mutex_);
    ctx.recordId = nextId_++;
    LiveRecord rec;
    rec.kind = kind;
    rec.mintedMs = nowMs;
    live_.emplace(ctx.recordId, rec);
    return ctx;
}

void
FrameTracer::hop(FrameTraceContext &ctx, Hop h, double beginMs,
                 double endMs)
{
    COTERIE_ASSERT(ctx.tracer == this, "context from another tracer");
    const double durMs = endMs >= beginMs ? endMs - beginMs : 0.0;
    const std::uint64_t wallNs = monotonicNowNs();
    {
        // A retired record takes no more hops (e.g. a late transfer
        // of an aborted fetch); the flight event is still recorded.
        support::MutexLock lock(mutex_);
        if (auto it = live_.find(ctx.recordId); it != live_.end())
            it->second.simTotals[static_cast<std::size_t>(h)] += durMs;
    }
    ++ctx.hops;
    flight::recordFrameHop(hopEventName(h), flightLabel_, ctx.session,
                           ctx.client, ctx.frame, beginMs, durMs,
                           wallNs, 0);
}

void
FrameTracer::hopWall(FrameTraceContext &ctx, Hop h,
                     std::uint64_t wallBeginNs, std::uint64_t wallEndNs)
{
    COTERIE_ASSERT(ctx.tracer == this, "context from another tracer");
    const std::uint64_t durNs =
        wallEndNs >= wallBeginNs ? wallEndNs - wallBeginNs : 0;
    ++ctx.hops;
    flight::recordFrameHop(hopEventName(h), flightLabel_, ctx.session,
                           ctx.client, ctx.frame, -1.0, 0.0,
                           wallBeginNs, durNs);
}

void
FrameTracer::link(const FrameTraceContext &frameCtx,
                  const FrameTraceContext &fetchCtx)
{
    if (frameCtx.tracer != this || fetchCtx.tracer != this)
        return;
    support::MutexLock lock(mutex_);
    const auto it = live_.find(frameCtx.recordId);
    COTERIE_ASSERT(it != live_.end(), "bad frame-trace link");
    it->second.linkedDominant = fetchCtx.dominant;
}

namespace {

/** The hop family with the largest sim total; -1 when all are zero. */
int
dominantHop(const std::array<double, kHopCount> &totals)
{
    int best = -1;
    double bestTotal = 0.0;
    for (std::size_t i = 0; i < kHopCount; ++i) {
        // Strict '>' keeps the earliest pipeline stage on ties,
        // which is stable across runs (totals are sim-derived).
        if (totals[i] > bestTotal) {
            bestTotal = totals[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

} // namespace

FrameTracer::Completion
FrameTracer::complete(FrameTraceContext &ctx, double doneMs)
{
    if (ctx.tracer != this)
        return {};
    Completion out;
    Kind kind;
    {
        support::MutexLock lock(mutex_);
        const auto it = live_.find(ctx.recordId);
        COTERIE_ASSERT(it != live_.end(),
                       "completing retired frame-trace record ",
                       ctx.recordId);
        const LiveRecord &rec = it->second;
        kind = rec.kind;
        out.latencyMs =
            doneMs >= rec.mintedMs ? doneMs - rec.mintedMs : 0.0;
        const int top = dominantHop(rec.simTotals);
        ctx.dominant = static_cast<std::int8_t>(top);
        if (top < 0) {
            out.criticalPath = "none";
        } else if (static_cast<Hop>(top) == Hop::StallWait &&
                   rec.linkedDominant >= 0) {
            // The frame spent its budget waiting on a fetch: name the
            // fetch's own bottleneck.
            out.criticalPath =
                std::string("stall_wait/") +
                hopName(static_cast<Hop>(rec.linkedDominant));
        } else {
            out.criticalPath = hopName(static_cast<Hop>(top));
        }
        if (kind == Kind::Frame)
            deadlines_.record(ctx.client, out.latencyMs,
                              out.criticalPath);
        live_.erase(it);
    }
    if (kind == Kind::Frame) {
        flight::recordFrameDone(flightLabel_, ctx.session, ctx.client,
                                ctx.frame, doneMs, out.latencyMs,
                                deadlines_.budgetMs(),
                                flight::intern(out.criticalPath));
    }
    return out;
}

void
FrameTracer::abort(FrameTraceContext &ctx)
{
    if (ctx.tracer != this)
        return;
    support::MutexLock lock(mutex_);
    live_.erase(ctx.recordId);
}

void
FrameTracer::finish()
{
    Json summary;
    {
        support::MutexLock lock(mutex_);
        summary = deadlines_.toJson();
    }
    SloRegistry::global().publish(label_, std::move(summary));
}

std::size_t
FrameTracer::liveRecordCount() const
{
    support::MutexLock lock(mutex_);
    return live_.size();
}

} // namespace coterie::obs
