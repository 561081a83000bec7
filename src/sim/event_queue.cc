#include "sim/event_queue.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/logging.hh"
#include "support/parallel.hh"

namespace coterie::sim {

namespace {

/**
 * Which lane the calling thread is currently executing in. The round
 * executor (and runInLane) stamps this around lane code so the
 * existing `queue.scheduleAt/scheduleIn/now` calls inside a session's
 * object graph route to the session's own lane with no signature
 * changes. Owner-tagged so nested engines (a solo run inside a fleet
 * barrier, tests with several queues) never cross-route.
 */
struct LaneCtx
{
    const EventQueue *owner = nullptr;
    std::uint32_t lane = 0;
};

thread_local LaneCtx tlsLaneCtx;

/** RAII lane-context scope (restores the previous context, so nested
 *  runInLane bodies and barrier-time solo work compose). */
class LaneScope
{
  public:
    LaneScope(const EventQueue *owner, std::uint32_t lane)
        : saved_(tlsLaneCtx)
    {
        tlsLaneCtx = LaneCtx{owner, lane};
    }
    ~LaneScope() { tlsLaneCtx = saved_; }
    LaneScope(const LaneScope &) = delete;
    LaneScope &operator=(const LaneScope &) = delete;

  private:
    LaneCtx saved_;
};

/** Heap order: earliest time first, then FIFO by sequence. */
struct Later
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

bool
EventQueue::Lane::workDue(TimeMs horizon) const
{
    return (!heap.empty() && heap.front().when <= horizon) ||
           !posted.empty();
}

void
EventQueue::Lane::advance(TimeMs horizon)
{
    while (!heap.empty() && heap.front().when <= horizon) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        Event ev = std::move(heap.back());
        heap.pop_back();
        now = ev.when;
        ++executed;
        ev.fn();
    }
    if (!std::isinf(horizon))
        now = std::max(now, horizon);
}

EventQueue::EventQueue()
{
    lanes_.push_back(std::make_unique<Lane>());
}

EventQueue::~EventQueue() = default;

TimeMs
EventQueue::now() const
{
    return current().now;
}

void
EventQueue::scheduleAt(TimeMs when, EventFn fn)
{
    Lane &ln = current();
    COTERIE_ASSERT(when >= ln.now, "event scheduled in the past: ", when,
                   " < ", ln.now);
    ln.heap.push_back(Event{when, ln.nextSeq++, std::move(fn)});
    std::push_heap(ln.heap.begin(), ln.heap.end(), Later{});
}

void
EventQueue::scheduleIn(TimeMs delay, EventFn fn)
{
    COTERIE_ASSERT(delay >= 0.0, "negative delay: ", delay);
    // Inside a lane a relative delay is lane-relative, and the event
    // lands in the scheduling lane's heap.
    scheduleAt(now() + delay, std::move(fn));
}

std::size_t
EventQueue::pending() const
{
    std::size_t n = 0;
    for (const auto &ln : lanes_)
        n += ln->heap.size();
    return n;
}

std::uint64_t
EventQueue::executedEvents() const
{
    std::uint64_t n = 0;
    for (const auto &ln : lanes_)
        n += ln->executed;
    return n;
}

std::uint32_t
EventQueue::createLane()
{
    COTERIE_ASSERT(currentLane() == 0,
                   "createLane must be called from the control plane");
    auto lane = std::make_unique<Lane>();
    lane->now = lanes_[0]->now;
    lanes_.push_back(std::move(lane));
    return static_cast<std::uint32_t>(lanes_.size()) - 1;
}

std::uint32_t
EventQueue::currentLane() const
{
    return tlsLaneCtx.owner == this ? tlsLaneCtx.lane : 0;
}

void
EventQueue::runInLane(std::uint32_t lane, const std::function<void()> &fn)
{
    if (lane == 0) {
        fn();
        return;
    }
    COTERIE_ASSERT(lane < lanes_.size(), "runInLane: no such lane ",
                   lane);
    LaneScope scope(this, lane);
    fn();
}

void
EventQueue::postControl(EventFn fn)
{
    current().posted.push_back(std::move(fn));
}

void
EventQueue::setBarrierHook(std::function<void()> hook)
{
    barrierHook_ = std::move(hook);
}

bool
EventQueue::workDue(TimeMs horizon) const
{
    for (const auto &ln : lanes_)
        if (ln->workDue(horizon))
            return true;
    return false;
}

void
EventQueue::round(TimeMs cap)
{
    Lane &control = *lanes_[0];

    // 1. The round horizon: the next control event (nothing a lane
    //    cannot yet see can happen before it), capped by the caller's
    //    horizon. Lanes never schedule into each other, so no further
    //    bound is needed.
    TimeMs horizon = cap;
    if (!control.heap.empty())
        horizon = std::min(horizon, control.heap.front().when);

    // 2. Advance every lane to the horizon in parallel. Chunk grain 1
    //    = one lane per chunk; chunk boundaries (and therefore what
    //    each lane executes) are thread-count independent, and each
    //    lane runs on exactly one thread per round, so intra-lane
    //    order is its serial (time, sequence) order exactly.
    support::parallelFor(
        1, static_cast<std::int64_t>(lanes_.size()), 1,
        [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                LaneScope scope(this, static_cast<std::uint32_t>(i));
                lanes_[static_cast<std::size_t>(i)]->advance(horizon);
            }
        });

    // 3. Advance the control clock to the barrier instant before any
    //    control-plane code runs: with a finite horizon that is the
    //    horizon itself; with lanes fully drained it is the farthest
    //    lane clock (both pure functions of simulation state).
    if (std::isinf(horizon)) {
        for (const auto &ln : lanes_)
            control.now = std::max(control.now, ln->now);
    } else {
        control.now = std::max(control.now, horizon);
    }

    // 4. Barrier hook (the fleet's deferred shared-cache render
    //    batch), then posted control actions by lane id, each lane's
    //    in post order, the control plane's own posts first. Posts
    //    made while draining wait for the next barrier.
    if (barrierHook_)
        barrierHook_();
    std::vector<EventFn> posted;
    posted.swap(control.posted);
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
        for (EventFn &fn : lanes_[i]->posted)
            posted.push_back(std::move(fn));
        lanes_[i]->posted.clear();
    }
    for (EventFn &fn : posted)
        fn();

    // 5. Control events up to the horizon, serially. These may admit
    //    new sessions (creating lanes) or schedule further control
    //    events inside the round; the control plane stays fully
    //    serial.
    control.advance(horizon);
}

void
EventQueue::runUntil(TimeMs horizon)
{
    COTERIE_ASSERT(!running_, "re-entrant run on EventQueue");
    running_ = true;
    struct ClearRunning
    {
        bool &running;
        ~ClearRunning() { running = false; }
    } clear{running_};
    while (workDue(horizon))
        round(horizon);
    // No events are left at or before the horizon: a clock bump.
    for (auto &ln : lanes_)
        ln->advance(horizon);
}

void
EventQueue::runToCompletion()
{
    runUntil(std::numeric_limits<TimeMs>::infinity());
}

} // namespace coterie::sim
