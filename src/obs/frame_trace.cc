#include "obs/frame_trace.hh"

#include <array>
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
    ctx.recordId = static_cast<std::uint32_t>(records_.size());
    FrameRecord rec;
    rec.kind = kind;
    rec.client = client;
    rec.frame = frame;
    rec.mintedMs = nowMs;
    records_.push_back(std::move(rec));
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
        support::MutexLock lock(mutex_);
        COTERIE_ASSERT(ctx.recordId < records_.size(),
                       "bad frame-trace record id ", ctx.recordId);
        records_[ctx.recordId].hops.push_back(
            HopRecord{h, beginMs, durMs, wallNs, 0});
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
    {
        support::MutexLock lock(mutex_);
        COTERIE_ASSERT(ctx.recordId < records_.size(),
                       "bad frame-trace record id ", ctx.recordId);
        records_[ctx.recordId].hops.push_back(
            HopRecord{h, -1.0, 0.0, wallBeginNs, durNs});
    }
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
    COTERIE_ASSERT(frameCtx.recordId < records_.size() &&
                       fetchCtx.recordId < records_.size(),
                   "bad frame-trace link");
    records_[frameCtx.recordId].link = fetchCtx.recordId + 1;
}

std::string
FrameTracer::criticalPathLocked(const FrameRecord &rec) const
{
    const auto dominant = [](const FrameRecord &r) -> int {
        std::array<double, kHopCount> totals{};
        for (const HopRecord &h : r.hops)
            totals[static_cast<std::size_t>(h.hop)] += h.simDurMs;
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
    };

    const int top = dominant(rec);
    if (top < 0)
        return "none";
    const Hop topHop = static_cast<Hop>(top);
    if (topHop == Hop::StallWait && rec.link != 0) {
        // The frame spent its budget waiting on a fetch: descend into
        // the linked fetch record to name the real bottleneck.
        const FrameRecord &fetch = records_[rec.link - 1];
        const int sub = dominant(fetch);
        if (sub >= 0) {
            return std::string("stall_wait/") +
                   hopName(static_cast<Hop>(sub));
        }
    }
    return hopName(topHop);
}

void
FrameTracer::complete(FrameTraceContext &ctx, double doneMs)
{
    if (ctx.tracer != this)
        return;
    std::string criticalPath;
    double latencyMs = 0.0;
    Kind kind;
    {
        support::MutexLock lock(mutex_);
        COTERIE_ASSERT(ctx.recordId < records_.size(),
                       "bad frame-trace record id ", ctx.recordId);
        FrameRecord &rec = records_[ctx.recordId];
        rec.doneMs = doneMs;
        rec.latencyMs = latencyMs =
            doneMs >= rec.mintedMs ? doneMs - rec.mintedMs : 0.0;
        rec.completed = true;
        rec.criticalPath = criticalPath = criticalPathLocked(rec);
        kind = rec.kind;
        if (kind == Kind::Frame)
            deadlines_.record(ctx.client, latencyMs, criticalPath);
    }
    if (kind == Kind::Frame) {
        flight::recordFrameDone(flightLabel_, ctx.session, ctx.client,
                                ctx.frame, doneMs, latencyMs,
                                deadlines_.budgetMs(),
                                flight::intern(criticalPath));
    }
}

void
FrameTracer::abort(FrameTraceContext &ctx, double nowMs)
{
    if (ctx.tracer != this)
        return;
    support::MutexLock lock(mutex_);
    COTERIE_ASSERT(ctx.recordId < records_.size(),
                   "bad frame-trace record id ", ctx.recordId);
    FrameRecord &rec = records_[ctx.recordId];
    rec.aborted = true;
    rec.doneMs = nowMs;
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

const FrameTracer::FrameRecord *
FrameTracer::find(Kind kind, std::uint16_t client,
                  std::uint64_t frame) const
{
    support::MutexLock lock(mutex_);
    return findLocked(kind, client, frame);
}

const FrameTracer::FrameRecord *
FrameTracer::findLocked(Kind kind, std::uint16_t client,
                        std::uint64_t frame) const
{
    // Latest match wins (a frame id can be re-fetched after expiry).
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->kind == kind && it->client == client &&
            it->frame == frame) {
            return &*it;
        }
    }
    return nullptr;
}

std::size_t
FrameTracer::recordCount() const
{
    support::MutexLock lock(mutex_);
    return records_.size();
}

} // namespace coterie::obs
