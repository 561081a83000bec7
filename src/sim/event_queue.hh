/**
 * @file
 * Discrete-event simulation core.
 *
 * The network model (shared 802.11ac channel, flows, clients) and the
 * end-to-end system benches run on this queue. Time is kept in double
 * milliseconds, matching the paper's reporting unit.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

namespace coterie::sim {

/** Simulation time in milliseconds. */
using TimeMs = double;

/** Callback invoked when an event fires. */
using EventFn = std::function<void()>;

/**
 * A priority-ordered event queue with stable FIFO ordering among events
 * scheduled for the same instant.
 *
 * The interface is virtual so a drop-in parallel engine
 * (`sim::ParallelEventQueue`, lane_queue.hh) can shard events into
 * per-session lanes behind the same `scheduleAt`/`scheduleIn`/`now`
 * surface; every consumer holds an `EventQueue&` and never needs to
 * know which engine drives it.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    virtual ~EventQueue() = default;

    /** Current simulation time. */
    virtual TimeMs now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    virtual void scheduleAt(TimeMs when, EventFn fn);

    /** Schedule @p fn to run @p delay ms from now. (Non-virtual: it
     *  delegates to the virtual now()/scheduleAt pair.) */
    void scheduleIn(TimeMs delay, EventFn fn);

    /** Number of pending events. */
    virtual std::size_t pending() const { return heap_.size(); }

    /** Time of the earliest pending event (+inf when empty). For the
     *  serial queue this is the head of the single heap; the parallel
     *  engine overrides it with the minimum across control and lane
     *  heaps. */
    virtual TimeMs nextEventAt() const
    {
        return heap_.empty()
                   ? std::numeric_limits<TimeMs>::infinity()
                   : heap_.top().when;
    }

    /** Run a single event; returns false when the queue is empty. */
    virtual bool step();

    /** Run until the queue drains or time would exceed @p horizon. */
    virtual void runUntil(TimeMs horizon);

    /** Run until the queue drains completely. */
    virtual void runToCompletion();

    /** Drop all pending events and reset the clock to zero. */
    virtual void reset();

    /** Events executed since construction (throughput reporting). */
    virtual std::uint64_t executedEvents() const { return executed_; }

  protected:
    struct Event
    {
        TimeMs when;
        std::uint64_t seq;
        EventFn fn;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    TimeMs now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

} // namespace coterie::sim

