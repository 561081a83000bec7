/**
 * @file
 * Tests for the frame-lifecycle causal tracer, the deadline SLO
 * engine, and the always-on flight recorder: hop stamping and
 * critical-path computation (including stall descent into the linked
 * fetch's dominant hop), record retirement at completion or abort,
 * deadline scoring/attribution and its JSON summary,
 * SLO publication into the metrics snapshot, flight-ring wraparound
 * and dump parsing, and the crash-dump path (an injected
 * COTERIE_ASSERT must leave a parseable flight dump behind).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/flight.hh"
#include "obs/frame_trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace coterie::obs {
namespace {

class FrameTraceTest : public testing::Test
{
  protected:
    void SetUp() override { SloRegistry::global().clear(); }
    void TearDown() override { SloRegistry::global().clear(); }
};

#if COTERIE_FLIGHT_ENABLED

/** Stop the active flight capture and parse what it wrote. */
Json
stopCaptureAndLoad()
{
    const std::string path = "frame_trace_capture.json";
    EXPECT_GE(flight::stopCapture(path), 0);
    std::string text;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    std::remove(path.c_str());
    std::string error;
    Json doc = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    return doc;
}

/** Captured events named @p name from the session labelled @p label. */
std::vector<Json>
frameEvents(const Json &doc, const std::string &name,
            const std::string &label)
{
    std::vector<Json> out;
    for (const Json &ev : doc.at("traceEvents").items())
        if (ev.at("name").asString() == name &&
            ev.at("args").at("label").asString() == label)
            out.push_back(ev);
    return out;
}

#endif // COTERIE_FLIGHT_ENABLED

TEST_F(FrameTraceTest, HopNamesCoverEveryEnumerator)
{
    for (std::size_t i = 0; i < kHopCount; ++i) {
        const Hop h = static_cast<Hop>(i);
        EXPECT_NE(hopName(h), nullptr);
        EXPECT_NE(std::string(hopName(h)), "");
        // Event names are "frame." + hopName.
        EXPECT_EQ(std::string(hopEventName(h)),
                  std::string("frame.") + hopName(h));
    }
    EXPECT_EQ(std::string(hopName(Hop::StallWait)), "stall_wait");
    EXPECT_EQ(std::string(hopName(Hop::Render)), "render");
}

TEST_F(FrameTraceTest, CompletionComputesLatencyAndCriticalPath)
{
    FrameTracer tracer("t/hops");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Frame, 3, 7, 100.0);
    ASSERT_TRUE(ctx.active());
    ctx.hop(Hop::Render, 100.0, 110.0);
    ctx.hop(Hop::Decode, 110.0, 112.0);
    const FrameTracer::Completion done = tracer.complete(ctx, 112.0);

    EXPECT_DOUBLE_EQ(done.latencyMs, 12.0);
    EXPECT_EQ(done.criticalPath, "render");
    EXPECT_EQ(ctx.hops, 2);
    EXPECT_EQ(ctx.dominant, static_cast<int>(Hop::Render));
    EXPECT_EQ(tracer.deadlines().frames(), 1u);
}

TEST_F(FrameTraceTest, CriticalPathSumsHopFamilies)
{
    // Two transfer attempts (5 + 4 = 9 ms) outweigh one 6 ms render:
    // attribution is per hop *family*, not per single longest hop.
    FrameTracer tracer("t/families");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Fetch, 0, 1, 0.0);
    ctx.hop(Hop::Transfer, 0.0, 5.0);
    ctx.hop(Hop::Render, 5.0, 11.0);
    ctx.hop(Hop::Transfer, 11.0, 15.0);
    EXPECT_EQ(tracer.complete(ctx, 15.0).criticalPath, "transfer");
}

TEST_F(FrameTraceTest, StallDescendsIntoLinkedFetch)
{
    FrameTracer tracer("t/stall");
    // The fetch whose delivery unblocks the frame: transfer-dominant.
    FrameTraceContext fetch =
        tracer.mint(FrameTracer::Kind::Fetch, 1, 42, 0.0);
    fetch.hop(Hop::Request, 0.0, 0.0);
    fetch.hop(Hop::Backlog, 0.0, 2.0);
    fetch.hop(Hop::Transfer, 2.0, 30.0);
    tracer.complete(fetch, 30.0);

    // The displayed frame spent almost all its time stalled on it.
    FrameTraceContext frame =
        tracer.mint(FrameTracer::Kind::Frame, 1, 5, 0.0);
    frame.hop(Hop::StallWait, 0.0, 30.0);
    tracer.link(frame, fetch);
    frame.hop(Hop::Merge, 30.0, 31.0);
    EXPECT_EQ(tracer.complete(frame, 31.0).criticalPath,
              "stall_wait/transfer");

    // Without a link the path stays flat.
    FrameTraceContext orphan =
        tracer.mint(FrameTracer::Kind::Frame, 1, 6, 0.0);
    orphan.hop(Hop::StallWait, 0.0, 20.0);
    orphan.hop(Hop::Merge, 20.0, 21.0);
    EXPECT_EQ(tracer.complete(orphan, 21.0).criticalPath, "stall_wait");
}

TEST_F(FrameTraceTest, InertContextIsANoOpEverywhere)
{
    FrameTraceContext inert;
    EXPECT_FALSE(inert.active());
    inert.hop(Hop::Render, 0.0, 1.0); // must not crash
    FrameTracer tracer("t/inert");
    tracer.complete(inert, 1.0);
    tracer.abort(inert);
    EXPECT_EQ(tracer.liveRecordCount(), 0u);
    EXPECT_EQ(tracer.deadlines().frames(), 0u);
}

TEST_F(FrameTraceTest, AbortedRecordsAreNotScored)
{
    FrameTracer tracer("t/abort");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Frame, 0, 1, 0.0);
    ctx.hop(Hop::Render, 0.0, 5.0);
    tracer.abort(ctx);
    EXPECT_EQ(tracer.liveRecordCount(), 0u);
    EXPECT_EQ(tracer.deadlines().frames(), 0u);
}

TEST_F(FrameTraceTest, FinishedRecordsAreRetired)
{
    FrameTracer tracer("t/retire");
    std::vector<FrameTraceContext> open;
    for (std::uint64_t i = 0; i < 12; ++i) {
        const auto kind = i % 3 == 0 ? FrameTracer::Kind::Fetch
                                     : FrameTracer::Kind::Frame;
        open.push_back(tracer.mint(kind, 0, i, 0.0));
        open.back().hop(Hop::Render, 0.0, 1.0 + i);
    }
    EXPECT_EQ(tracer.liveRecordCount(), open.size());

    // Complete every even record (2 fetches, 4 frames), abort the rest.
    std::uint64_t completedFrames = 0;
    for (std::uint64_t i = 0; i < open.size(); ++i) {
        if (i % 2 == 0) {
            tracer.complete(open[i], 1.0 + i);
            completedFrames += i % 3 != 0;
        } else {
            tracer.abort(open[i]);
        }
    }
    EXPECT_EQ(completedFrames, 4u);
    EXPECT_EQ(tracer.liveRecordCount(), 0u);
    EXPECT_EQ(tracer.deadlines().frames(), completedFrames);
}

TEST_F(FrameTraceTest, HopsOnARetiredRecordAreDropped)
{
    FrameTracer tracer("t/retired");
    FrameTraceContext aborted =
        tracer.mint(FrameTracer::Kind::Fetch, 0, 1, 0.0);
    tracer.abort(aborted);
    FrameTraceContext done =
        tracer.mint(FrameTracer::Kind::Frame, 0, 2, 0.0);
    done.hop(Hop::Render, 0.0, 10.0);
    tracer.complete(done, 10.0);
    const std::string before = tracer.deadlines().toJson().dump(2);

#if COTERIE_FLIGHT_ENABLED
    flight::startCapture();
#endif
    // A late transfer of the aborted fetch, and a hop after the
    // frame's completion: neither has a record left to land in.
    aborted.hop(Hop::Transfer, 0.0, 50.0);
    done.hop(Hop::Render, 10.0, 60.0);
    EXPECT_EQ(aborted.hops, 1);
    EXPECT_EQ(done.hops, 2);
    EXPECT_EQ(tracer.liveRecordCount(), 0u);
    EXPECT_EQ(tracer.deadlines().frames(), 1u);
    EXPECT_EQ(tracer.deadlines().misses(), 0u);
    EXPECT_EQ(tracer.deadlines().toJson().dump(2), before);
#if COTERIE_FLIGHT_ENABLED
    // ...but both still reach the flight rings.
    const Json doc = stopCaptureAndLoad();
    EXPECT_EQ(frameEvents(doc, "frame.transfer", "t/retired").size(), 1u);
    EXPECT_EQ(frameEvents(doc, "frame.render", "t/retired").size(), 1u);
#endif
}

TEST(FrameTraceDeath, CompletingARetiredRecordPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Keep the panic hook's flight dump out of the working directory.
    const std::string path = "frame_trace_retired_death.json";
    ASSERT_EQ(setenv("COTERIE_FLIGHT_DUMP", path.c_str(), 1), 0);
    FrameTracer tracer("t/death");
    FrameTraceContext done =
        tracer.mint(FrameTracer::Kind::Frame, 0, 1, 0.0);
    tracer.complete(done, 1.0);
    EXPECT_DEATH(tracer.complete(done, 2.0), "retired frame-trace record");
    FrameTraceContext aborted =
        tracer.mint(FrameTracer::Kind::Fetch, 0, 2, 0.0);
    tracer.abort(aborted);
    EXPECT_DEATH(tracer.complete(aborted, 2.0),
                 "retired frame-trace record");
    unsetenv("COTERIE_FLIGHT_DUMP");
    std::remove(path.c_str());
}

TEST_F(FrameTraceTest, OnlyFrameRecordsFeedTheDeadlineTracker)
{
    FrameTracer tracer("t/kinds");
    FrameTraceContext fetch =
        tracer.mint(FrameTracer::Kind::Fetch, 0, 1, 0.0);
    fetch.hop(Hop::Transfer, 0.0, 40.0);
    tracer.complete(fetch, 40.0); // slow, but fetches are not frames
    FrameTraceContext frame =
        tracer.mint(FrameTracer::Kind::Frame, 0, 1, 0.0);
    frame.hop(Hop::Render, 0.0, 10.0);
    tracer.complete(frame, 10.0);
    EXPECT_EQ(tracer.deadlines().frames(), 1u);
    EXPECT_EQ(tracer.deadlines().misses(), 0u);
}

// --- DeadlineTracker ---------------------------------------------------

TEST(DeadlineTracker, ScoresMissesAndAttributesHops)
{
    DeadlineTracker tracker; // 16.7 ms budget
    tracker.record(0, 10.0, "render");
    tracker.record(0, 20.0, "render");
    tracker.record(1, 30.0, "stall_wait/transfer");
    EXPECT_EQ(tracker.frames(), 3u);
    EXPECT_EQ(tracker.misses(), 2u);
    EXPECT_DOUBLE_EQ(tracker.budgetMs(), kFrameBudgetMs);

    const Json summary = tracker.toJson();
    EXPECT_EQ(summary.at("frames").asNumber(), 3.0);
    EXPECT_EQ(summary.at("misses").asNumber(), 2.0);
    EXPECT_NEAR(summary.at("miss_rate").asNumber(), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(summary.at("latency").at("p50_ms").asNumber(),
                     20.0);
    EXPECT_DOUBLE_EQ(summary.at("latency").at("max_ms").asNumber(),
                     30.0);
    const Json &byHop = summary.at("misses_by_hop");
    EXPECT_EQ(byHop.at("render").asNumber(), 1.0);
    EXPECT_EQ(byHop.at("stall_wait/transfer").asNumber(), 1.0);
    const Json &client1 = summary.at("clients").at("1");
    EXPECT_EQ(client1.at("frames").asNumber(), 1.0);
    EXPECT_EQ(client1.at("misses").asNumber(), 1.0);
}

TEST(DeadlineTracker, PercentilesAreExactOverTheSampleList)
{
    DeadlineTracker tracker;
    SampleSet reference;
    for (int i = 1; i <= 200; ++i) {
        const double latency = 0.1 * i; // 0.1 .. 20 ms
        tracker.record(static_cast<std::uint16_t>(i % 4), latency,
                       "render");
        reference.add(latency);
    }
    // Exact SampleSet percentiles on both sides: bit-identical, the
    // property the "metrics p99 matches trace-derived p99" acceptance
    // criterion leans on.
    EXPECT_EQ(tracker.percentile(50.0), reference.percentile(50.0));
    EXPECT_EQ(tracker.percentile(99.0), reference.percentile(99.0));
    EXPECT_EQ(tracker.percentile(99.9), reference.percentile(99.9));
}

// --- SLO publication ---------------------------------------------------

TEST_F(FrameTraceTest, FinishPublishesSloUnderTheSessionLabel)
{
    FrameTracer tracer("pool/2p/coterie");
    SampleSet reference;
    for (int i = 0; i < 100; ++i) {
        FrameTraceContext ctx = tracer.mint(
            FrameTracer::Kind::Frame, static_cast<std::uint16_t>(i % 2),
            static_cast<std::uint64_t>(i), 0.0);
        const double latency = 5.0 + 0.2 * i; // 5 .. 24.8 ms
        ctx.hop(Hop::Render, 0.0, latency);
        tracer.complete(ctx, latency);
        reference.add(latency);
    }
    tracer.finish();

    ASSERT_EQ(SloRegistry::global().size(), 1u);
    const Json slo = SloRegistry::global().snapshotJson();
    ASSERT_TRUE(slo.contains("pool/2p/coterie"));
    const Json &summary = slo.at("pool/2p/coterie");
    EXPECT_EQ(summary.at("frames").asNumber(), 100.0);
    // The published p99 is the tracer's own exact percentile — and
    // both equal the reference sample list bit for bit.
    EXPECT_EQ(summary.at("latency").at("p99_ms").asNumber(),
              tracer.deadlines().percentile(99.0));
    EXPECT_EQ(summary.at("latency").at("p99_ms").asNumber(),
              reference.percentile(99.0));

    // Any metrics snapshot re-exports the global SLO registry.
    MetricsRegistry registry;
    const Json snap = registry.snapshotJson();
    ASSERT_TRUE(snap.contains("slo"));
    EXPECT_TRUE(snap.at("slo").contains("pool/2p/coterie"));

    // Re-publishing under the same label replaces (last write wins).
    FrameTracer again("pool/2p/coterie");
    FrameTraceContext ctx =
        again.mint(FrameTracer::Kind::Frame, 0, 0, 0.0);
    ctx.hop(Hop::Render, 0.0, 1.0);
    again.complete(ctx, 1.0);
    again.finish();
    EXPECT_EQ(SloRegistry::global().size(), 1u);
    EXPECT_EQ(SloRegistry::global()
                  .snapshotJson()
                  .at("pool/2p/coterie")
                  .at("frames")
                  .asNumber(),
              1.0);
}

TEST_F(FrameTraceTest, SloSnapshotDumpIsDeterministic)
{
    // Same records -> byte-identical registry dump regardless of
    // publish order: the chaos harness diffs these across
    // COTERIE_THREADS runs.
    const auto publishBoth = [](bool reversed) {
        SloRegistry::global().clear();
        DeadlineTracker a, b;
        a.record(0, 10.0, "render");
        a.record(1, 21.0, "transfer");
        b.record(0, 8.0, "decode");
        if (reversed) {
            SloRegistry::global().publish("s/b", b.toJson());
            SloRegistry::global().publish("s/a", a.toJson());
        } else {
            SloRegistry::global().publish("s/a", a.toJson());
            SloRegistry::global().publish("s/b", b.toJson());
        }
        return SloRegistry::global().snapshotJson().dump(2);
    };
    EXPECT_EQ(publishBoth(false), publishBoth(true));
}

// --- Flight recorder ---------------------------------------------------

#if COTERIE_FLIGHT_ENABLED

TEST(FlightRecorder, RingWrapsAndDumpParses)
{
    const std::string path = "frame_trace_flight_wrap.json";
    // Overfill this thread's ring; the recorder keeps the newest
    // kRingCapacity events and the dump must still be valid JSON.
    for (std::size_t i = 0; i < flight::kRingCapacity + 512; ++i)
        flight::recordFrameHop("frame.render", "flight/test", 1,
                               2, i, static_cast<double>(i), 1.0, 0);
    flight::recordFrameDone("flight/test", 1, 2, 999, 1000.0, 21.5,
                            16.7, "render");
    ASSERT_TRUE(flight::dump(path));

    bool ok = true;
    std::string text;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        ok = std::ferror(f) == 0;
        std::fclose(f);
    }
    ASSERT_TRUE(ok);
    std::string error;
    const Json doc = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(doc.contains("traceEvents"));

    std::size_t hops = 0, dones = 0;
    for (const Json &ev : doc.at("traceEvents").items()) {
        const std::string name = ev.at("name").asString();
        if (name == "frame.render" &&
            ev.at("ph").asString() == "X") {
            ++hops;
            // Sim-timeline events live under pid 2, track = client.
            EXPECT_EQ(ev.at("pid").asNumber(), 2.0);
            EXPECT_EQ(ev.at("tid").asNumber(), 2.0);
        } else if (name == "frame.done") {
            ++dones;
            EXPECT_DOUBLE_EQ(
                ev.at("args").at("latency_ms").asNumber(), 21.5);
            EXPECT_EQ(ev.at("args").at("critical_path").asString(),
                      "render");
            EXPECT_TRUE(ev.at("args").at("miss").asBool());
        }
    }
    // The ring wrapped: at most kRingCapacity survivors, and the ones
    // that did survive are the newest (the frame.done among them).
    EXPECT_GT(hops, 0u);
    EXPECT_LE(hops, flight::kRingCapacity);
    EXPECT_EQ(dones, 1u);
    std::remove(path.c_str());
}

TEST(FlightRecorder, InternIsIdempotentAndStable)
{
    const char *a = flight::intern("flight/label");
    const char *b = flight::intern("flight/label");
    const char *c = flight::intern("flight/other");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_STREQ(a, "flight/label");
}

TEST(FlightRecorder, TracerHopsLandInTheRing)
{
    const std::size_t before = flight::eventCount();
    FrameTracer tracer("flight/tracer");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Frame, 0, 1, 0.0);
    ctx.hop(Hop::Render, 0.0, 10.0);
    tracer.complete(ctx, 10.0);
    // One event per hop plus the completion marker — but a full ring
    // (earlier tests may have saturated it) overwrites in place, so
    // cap the expectation at the ring capacity.
    EXPECT_GE(flight::eventCount(),
              std::min(before + 2, flight::kRingCapacity));
}

using FlightDeathTest = testing::Test;

TEST(FlightDeathTest, InjectedAssertLeavesAParseableDump)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = "frame_trace_flight_death.json";
    std::remove(path.c_str());
    // The death-test child inherits the env var, records an event (which
    // lazily arms the panic hook), then trips an assert; the hook must
    // write the dump before the abort.
    ASSERT_EQ(setenv("COTERIE_FLIGHT_DUMP", path.c_str(), 1), 0);
    EXPECT_DEATH(
        {
            flight::recordInstant("flight.crash_marker", "test", 5.0);
            COTERIE_ASSERT(false, "injected flight-dump crash");
        },
        "injected flight-dump crash");
    unsetenv("COTERIE_FLIGHT_DUMP");

    std::string text;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr)
            << "panic hook did not write the flight dump";
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    std::string error;
    const Json doc = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    bool sawMarker = false;
    for (const Json &ev : doc.at("traceEvents").items())
        if (ev.at("name").asString() == "flight.crash_marker")
            sawMarker = true;
    EXPECT_TRUE(sawMarker);
    std::remove(path.c_str());
}

#else // COTERIE_FLIGHT_ENABLED

TEST(FlightRecorder, CompiledOutEntryPointsAreInertNoOps)
{
    static_assert(!flight::kCompiledIn);
    flight::recordInstant("gone", "test");
    EXPECT_EQ(flight::eventCount(), 0u);
    EXPECT_FALSE(flight::dump("unused.json"));
    EXPECT_STREQ(flight::intern("anything"), "");

    // A capture is inert: it never arms, records no counters, and
    // writes no file.
    const std::string path = "frame_trace_inert_capture.json";
    std::remove(path.c_str());
    flight::startCapture();
    EXPECT_FALSE(flight::capturing());
    flight::recordCounter("gone.counter", 1.0);
    EXPECT_EQ(flight::eventCount(), 0u);
    EXPECT_EQ(flight::stopCapture(path), -1);
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
}

#endif // COTERIE_FLIGHT_ENABLED

} // namespace
} // namespace coterie::obs
