/**
 * @file
 * Discrete-event simulation core: one engine with per-session lanes
 * advancing between control-plane barriers (DESIGN.md §12).
 *
 * The network model (shared 802.11ac channel, flows, clients) and the
 * end-to-end system benches run on this queue. Time is kept in double
 * milliseconds, matching the paper's reporting unit.
 *
 * Events shard into **lanes**: lane 0 is the *control plane*, and a
 * fleet adds one lane per session (`createLane`). A solo run never
 * creates a lane, so all of its events live on the control plane.
 * Rounds alternate:
 *
 *   1. every lane advances independently (on the shared thread pool)
 *      up to the round horizon — the next control event time. Fleet
 *      sessions never schedule into each other, so no lane needs to
 *      wait on another's clock inside a round;
 *   2. the barrier hook runs (the fleet drains its deferred
 *      shared-cache render batch here);
 *   3. posted control actions drain by lane id, each lane's in post
 *      order;
 *   4. control events at or before the horizon run serially.
 *
 * Determinism argument: within a lane, events run in (time,
 * FIFO-sequence) order on one thread at a time. Across lanes, every
 * interaction is funneled through steps 2–4, whose order is a pure
 * function of simulation state — never of wall-clock interleaving —
 * so results are bit-identical at any COTERIE_THREADS.
 *
 * Routing is implicit: code running inside a lane (its events, or a
 * `runInLane` body) sees `now()` as the lane clock and `scheduleAt`
 * lands in the lane's own heap, so `SharedChannel`, `FrameServer`,
 * `FaultDriver` and the whole per-session stack work unchanged against
 * their `sim::EventQueue&` reference.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace coterie::sim {

/** Simulation time in milliseconds. */
using TimeMs = double;

/** Callback invoked when an event fires. */
using EventFn = std::function<void()>;

/**
 * The event engine. Within one lane, events run in time order with
 * stable FIFO ordering among events scheduled for the same instant.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    /** Current simulation time (the lane clock inside a lane). */
    TimeMs now() const;

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void scheduleAt(TimeMs when, EventFn fn);

    /** Schedule @p fn to run @p delay ms from now. */
    void scheduleIn(TimeMs delay, EventFn fn);

    /** Pending events across every lane. Meaningful at barriers (the
     *  governor's pressure signal); unspecified mid-round. */
    std::size_t pending() const;

    /** Events executed since construction (throughput reporting). */
    std::uint64_t executedEvents() const;

    /** Run until the queue drains or time would exceed @p horizon;
     *  every clock then reads at least @p horizon. An exception thrown
     *  by an event propagates, and the queue stays usable. */
    void runUntil(TimeMs horizon);

    /** Run until the queue drains completely. */
    void runToCompletion();

    // --- Lanes -----------------------------------------------------

    /** Create a lane whose clock starts at the control clock. Returns
     *  its id (>= 1). Call from the control plane, never from inside a
     *  lane. */
    std::uint32_t createLane();

    /**
     * The lane the calling thread is executing in: 0 for the control
     * plane / outside the engine, otherwise the lane id. Lane context
     * is established by the round executor around lane events and by
     * runInLane.
     */
    std::uint32_t currentLane() const;

    /**
     * Run @p fn with lane context established: `now()` reads the lane
     * clock and `scheduleAt`/`scheduleIn` land in the lane's heap.
     * This is how a session's object graph is constructed *into* its
     * lane — ctor-time scheduling (fault-driver arming, client frame
     * staggering) lands in-lane without any signature changes. With
     * lane 0 (the control plane) @p fn just runs inline.
     */
    void runInLane(std::uint32_t lane, const std::function<void()> &fn);

    // --- Barrier-deferred interaction with the control plane -------

    /**
     * Defer @p fn to the next round barrier, to run on the control
     * plane after all lanes have joined. Posts drain by lane id, each
     * lane's in post order — the deterministic merge order — before
     * any control event at the horizon runs. This is the only legal
     * way for lane code to reach state owned by the control plane or
     * by another lane.
     */
    void postControl(EventFn fn);

    /** Control-plane callback invoked at every round barrier (after
     *  lanes join, before posted actions and control events). The
     *  fleet drains its deferred render batch here. */
    void setBarrierHook(std::function<void()> hook);

  private:
    struct Event
    {
        TimeMs when;
        std::uint64_t seq;
        EventFn fn;
    };
    /** One serial lane: a (time, sequence) min-heap and its clock.
     *  The posted buffer is written only by the lane's own (single)
     *  executing thread during a round and drained at every barrier,
     *  so it needs no locks and holds at most one round's posts. */
    struct Lane
    {
        TimeMs now = 0.0;
        std::uint64_t nextSeq = 0;
        std::uint64_t executed = 0;
        std::vector<Event> heap;
        std::vector<EventFn> posted;

        /** True when an event is due at or before @p horizon, or a
         *  post awaits the barrier. */
        bool workDue(TimeMs horizon) const;
        /** Run every event at or before @p horizon, then raise the
         *  clock to a finite @p horizon. */
        void advance(TimeMs horizon);
    };

    Lane &current() const { return *lanes_[currentLane()]; }
    bool workDue(TimeMs horizon) const;
    /** One round up to @p cap (cap = +inf for runToCompletion). */
    void round(TimeMs cap);

    /** lanes_[0] is the control plane. Lanes live behind pointers so
     *  a control event may create one while another's loop runs. */
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::function<void()> barrierHook_;
    bool running_ = false;
};

} // namespace coterie::sim
