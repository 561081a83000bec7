/**
 * @file
 * Tests for the discrete-event engine.
 *
 * The ordering contract (temporal order, same-timestamp FIFO
 * stability, relative scheduling from inside handlers, drain-to-empty
 * vs run-until-horizon, recovery from a throwing event) is
 * typed-parameterized over the two places events can live: the control
 * plane, where a solo run schedules everything, and a lane, where each
 * fleet session runs. Lane-specific behaviour (lane clocks,
 * barrier-deferred posts and their deterministic merge order) is
 * covered separately below.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hh"

namespace coterie::sim {

/** Context tag: the contract events live in a lane created at t=0.
 *  (Outside the anonymous namespace so test names print it plainly.) */
struct InLane
{
};

namespace {

/**
 * The ordering-contract suite. The type parameter names where the
 * events are scheduled: `EventQueue` on its control plane, `InLane`
 * inside a lane. In-lane cases schedule via runInLane and read clocks
 * in lane context; handlers then run in the lane on their own.
 */
template <typename Context> class EventQueueContract : public ::testing::Test
{
  protected:
    /** Run @p fn where the contract's events live. */
    void in(const std::function<void()> &fn) { q.runInLane(lane, fn); }

    /** The clock of the context under test. */
    TimeMs now()
    {
        TimeMs t = -1.0;
        in([&] { t = q.now(); });
        return t;
    }

    EventQueue q;
    const std::uint32_t lane =
        std::is_same_v<Context, InLane> ? q.createLane() : 0;
};

using Contexts = ::testing::Types<EventQueue, InLane>;
TYPED_TEST_SUITE(EventQueueContract, Contexts);

TYPED_TEST(EventQueueContract, RunsEventsInTimeOrder)
{
    auto &q = this->q;
    std::vector<int> order;
    this->in([&] {
        q.scheduleAt(5.0, [&] { order.push_back(2); });
        q.scheduleAt(1.0, [&] { order.push_back(1); });
        q.scheduleAt(9.0, [&] { order.push_back(3); });
    });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(this->now(), 9.0);
}

TYPED_TEST(EventQueueContract, SameTimeIsFifo)
{
    auto &q = this->q;
    std::vector<int> order;
    this->in([&] {
        for (int i = 0; i < 10; ++i)
            q.scheduleAt(3.0, [&, i] { order.push_back(i); });
    });
    q.runToCompletion();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TYPED_TEST(EventQueueContract, ScheduleInFromInsideAHandlerIsRelative)
{
    auto &q = this->q;
    double fired_at = -1.0;
    this->in([&] {
        q.scheduleAt(10.0, [&] {
            q.scheduleIn(5.0, [&] { fired_at = q.now(); });
        });
    });
    q.runToCompletion();
    EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TYPED_TEST(EventQueueContract, RunUntilStopsAtHorizon)
{
    auto &q = this->q;
    int fired = 0;
    this->in([&] {
        q.scheduleAt(1.0, [&] { ++fired; });
        q.scheduleAt(100.0, [&] { ++fired; });
    });
    q.runUntil(50.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(this->now(), 50.0);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(200.0);
    EXPECT_EQ(fired, 2);
}

TYPED_TEST(EventQueueContract, EventsMayScheduleMoreEvents)
{
    auto &q = this->q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            q.scheduleIn(1.0, chain);
    };
    this->in([&] { q.scheduleIn(1.0, chain); });
    q.runToCompletion();
    EXPECT_EQ(count, 100);
    EXPECT_DOUBLE_EQ(this->now(), 100.0);
    EXPECT_EQ(q.executedEvents(), 100u);
}

TYPED_TEST(EventQueueContract, AThrowingEventPropagatesAndTheQueueStaysUsable)
{
    auto &q = this->q;
    int fired = 0;
    this->in([&] {
        q.scheduleAt(1.0, [] { throw std::runtime_error("boom"); });
        q.scheduleAt(2.0, [&] { ++fired; });
    });
    EXPECT_THROW(q.runUntil(10.0), std::runtime_error);
    q.runUntil(10.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(this->now(), 10.0);
    EXPECT_EQ(q.executedEvents(), 2u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue q;
    q.scheduleAt(10.0, [] {});
    q.runToCompletion();
    EXPECT_DEATH(q.scheduleAt(5.0, [] {}), "past");
}

TEST(EventQueueDeath, PastSchedulingInALanePanics)
{
    // The lane clock, not the control clock, is the bound in a lane.
    EventQueue q;
    const std::uint32_t lane = q.createLane();
    q.runInLane(lane, [&] { q.scheduleAt(10.0, [] {}); });
    q.runToCompletion();
    EXPECT_DEATH(q.runInLane(lane, [&] { q.scheduleAt(5.0, [] {}); }),
                 "past");
}

// --- Lanes ----------------------------------------------------------

TEST(EventQueueLanes, LaneClockStartsAtCreationTime)
{
    EventQueue q;
    q.scheduleAt(7.0, [&] {
        const std::uint32_t lane = q.createLane();
        q.runInLane(lane, [&] {
            EXPECT_EQ(q.currentLane(), lane);
            EXPECT_DOUBLE_EQ(q.now(), 7.0);
            // Relative scheduling inside the lane is lane-relative.
            q.scheduleIn(3.0, [&] { EXPECT_DOUBLE_EQ(q.now(), 10.0); });
        });
    });
    q.runToCompletion();
    EXPECT_EQ(q.executedEvents(), 2u);
}

TEST(EventQueueLanes, LaneEventsRouteThroughTheSchedulingLane)
{
    EventQueue q;
    const std::uint32_t a = q.createLane();
    const std::uint32_t b = q.createLane();
    std::vector<std::string> log; // mutated only via postControl
    for (const auto &[lane, tag] :
         {std::pair{a, "a"}, std::pair{b, "b"}}) {
        q.runInLane(lane, [&, tag = std::string(tag)] {
            q.scheduleIn(1.0, [&, tag] {
                q.scheduleIn(1.0, [&, tag] {
                    q.postControl([&, tag] { log.push_back(tag + "2"); });
                });
                q.postControl([&, tag] { log.push_back(tag + "1"); });
            });
        });
    }
    q.runToCompletion();
    EXPECT_EQ(q.pending(), 0u);
    // With no control events and no cross-lane traffic both lanes
    // drain fully in one round; at the barrier posts drain by lane id,
    // each lane's in post order — all of lane a's before any of b's.
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "a2", "b1", "b2"}));
}

TEST(EventQueueLanes, PostedActionsDrainBeforeControlEventsAtTheBarrier)
{
    EventQueue q;
    const std::uint32_t lane = q.createLane();
    std::vector<std::string> order;
    q.scheduleAt(10.0, [&] { order.push_back("control@10"); });
    q.runInLane(lane, [&] {
        q.scheduleAt(4.0, [&] {
            q.postControl([&] { order.push_back("posted@4"); });
        });
    });
    q.runToCompletion();
    EXPECT_EQ(order,
              (std::vector<std::string>{"posted@4", "control@10"}));
    // The control clock at the barrier had already advanced to the
    // round horizon, and ends at the last control event.
    EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueueLanes, PostsDrainInLaneThenTimeOrder)
{
    // Four lanes each post sixteen actions at staggered lane times.
    // With no control events every lane drains in one round, so the
    // barrier merge is all of lane 1's posts in time order, then lane
    // 2's, and so on — whatever the lanes' wall-clock interleaving.
    EventQueue q;
    std::vector<std::string> log;
    for (int lane = 1; lane <= 4; ++lane) {
        const std::uint32_t id = q.createLane();
        q.runInLane(id, [&, lane] {
            for (int k = 0; k < 16; ++k) {
                q.scheduleIn(0.5 * k, [&, lane, k] {
                    q.postControl([&, lane, k] {
                        log.push_back(std::to_string(lane) + ":" +
                                      std::to_string(k));
                    });
                });
            }
        });
    }
    q.runToCompletion();
    std::vector<std::string> expected;
    for (int lane = 1; lane <= 4; ++lane)
        for (int k = 0; k < 16; ++k)
            expected.push_back(std::to_string(lane) + ":" +
                               std::to_string(k));
    EXPECT_EQ(log, expected);
}

} // namespace
} // namespace coterie::sim
