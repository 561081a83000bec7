/**
 * @file
 * Tests for Constraint 1 and the per-location maximal cutoff search:
 * the returned radius satisfies the budget, is maximal up to the search
 * tolerance, shrinks with object density, respects bounds, and
 * matches an uncached bisection bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/cutoff.hh"
#include "obs/metrics.hh"
#include "world/gen/track.hh"
#include "world/gen/generators.hh"

namespace coterie::core {
namespace {

using geom::Vec2;
using world::gen::GameId;
using world::gen::makeWorld;

TEST(CutoffConstraint, BudgetArithmetic)
{
    CutoffConstraint c;
    c.frameBudgetMs = 16.7;
    c.rtFiMs = 4.0;
    c.utilizationTarget = 1.0;
    EXPECT_NEAR(c.nearBudgetMs(), 12.7, 1e-9);
    c.utilizationTarget = 0.5;
    EXPECT_NEAR(c.nearBudgetMs(), 6.35, 1e-9);
}

TEST(Cutoff, ReturnedRadiusSatisfiesConstraint)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    const CutoffConstraint constraint;
    for (const Vec2 eye :
         {world.bounds().center(), world.bounds().center() + Vec2{30, 15},
          Vec2{10.0, 10.0}}) {
        const double radius =
            maxCutoffRadius(world, eye, profile, constraint);
        EXPECT_LT(nearBeRenderTimeMs(world, eye, radius, profile),
                  constraint.nearBudgetMs());
    }
}

TEST(Cutoff, RadiusIsMaximalUpToTolerance)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    const CutoffConstraint constraint;
    const Vec2 eye = world.bounds().center() + Vec2{12.0, 7.0};
    const double radius =
        maxCutoffRadius(world, eye, profile, constraint, 0.1);
    if (radius < constraint.maxRadius - 1.0) {
        // One tolerance step further must violate (or be borderline).
        EXPECT_GE(nearBeRenderTimeMs(world, eye, radius + 0.3, profile),
                  constraint.nearBudgetMs() * 0.97);
    }
}

TEST(Cutoff, DenseMarketSmallerThanOutskirts)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    const double market =
        maxCutoffRadius(world, world.bounds().center(), profile);
    const double outskirts =
        maxCutoffRadius(world, Vec2{8.0, 8.0}, profile);
    EXPECT_LT(market, outskirts);
    // Figure 8: the market square anchors the ~2 m bins.
    EXPECT_LT(market, 8.0);
}

TEST(Cutoff, SparseTrackWorldReachesLargeRadii)
{
    const auto world = makeWorld(GameId::Racing, 42);
    const auto &profile = device::pixel2();
    // Sample along the track (the reachable corridor): stretches far
    // from the forest and the mountains allow very large radii.
    world::gen::Track track(world.bounds(),
                            world.terrain().params().seed);
    double best = 0.0;
    for (double s = 0.0; s < track.length(); s += track.length() / 24) {
        best = std::max(
            best, maxCutoffRadius(world, track.pointAt(s), profile));
    }
    // Figure 7: Racing Mountain cutoffs spread up to ~180 m; in our
    // world the off-track mountain field caps the corridor maximum
    // slightly lower (see EXPERIMENTS.md).
    EXPECT_GT(best, 75.0);
}

TEST(Cutoff, RespectsMaxRadiusCeiling)
{
    const auto world = makeWorld(GameId::Racing, 42);
    const auto &profile = device::pixel2();
    CutoffConstraint constraint;
    constraint.maxRadius = 25.0;
    for (double x = 100; x < 900; x += 200) {
        EXPECT_LE(maxCutoffRadius(world, Vec2{x, 500.0}, profile,
                                  constraint),
                  25.0 + 1e-9);
    }
}

TEST(Cutoff, MinRadiusFloorInImpossiblyDenseSpot)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    CutoffConstraint constraint;
    // Make the budget absurdly small: even the minimum radius violates,
    // and the floor is returned.
    constraint.rtFiMs = 16.0;
    constraint.utilizationTarget = 0.2;
    const double radius = maxCutoffRadius(
        world, world.bounds().center(), profile, constraint);
    EXPECT_DOUBLE_EQ(radius, constraint.minRadius);
}

TEST(Cutoff, TighterBudgetShrinksRadius)
{
    const auto world = makeWorld(GameId::CTS, 42);
    const auto &profile = device::pixel2();
    CutoffConstraint generous;
    CutoffConstraint tight;
    tight.rtFiMs = 10.0;
    const Vec2 eye = world.bounds().center();
    EXPECT_LE(maxCutoffRadius(world, eye, profile, tight),
              maxCutoffRadius(world, eye, profile, generous));
}

/**
 * The search against an uncached bisection over the free cost function
 * (`nearBeRenderTimeMs`, which re-queries the BVH per probe): the same
 * radius bit for bit, through all three exits (floor, ceiling,
 * bisection), and cost counters whose per-search totals are one cache
 * build and one cache query per probe.
 */
TEST(Cutoff, SearchMatchesUncachedBisectionAndCountsProbes)
{
    const auto &profile = device::pixel2();
    CutoffConstraint floor; // even minRadius violates
    floor.rtFiMs = 16.0;
    floor.utilizationTarget = 0.2;
    CutoffConstraint ceiling; // a low ceiling that sparse spots meet
    ceiling.maxRadius = 4.0;
    std::uint64_t exits[3] = {0, 0, 0};
    for (const GameId game : {GameId::Viking, GameId::Racing}) {
        const auto world = makeWorld(game, 42);
        const geom::Rect &b = world.bounds();
        for (const Vec2 eye : {b.center(), b.lo, b.center() + Vec2{31, -17},
                               Vec2{b.lo.x + 0.3 * b.width(), b.hi.y}}) {
            for (const CutoffConstraint &c :
                 {CutoffConstraint{}, floor, ceiling}) {
                std::uint64_t probes = 0;
                const auto timeAtMs = [&](double r) {
                    ++probes;
                    return nearBeRenderTimeMs(world, eye, r, profile);
                };
                const double budget = c.nearBudgetMs();
                const double hiLimit =
                    std::min(c.maxRadius, std::hypot(b.width(), b.height()));
                double expected;
                if (timeAtMs(c.minRadius) >= budget) {
                    expected = c.minRadius;
                } else if (timeAtMs(hiLimit) < budget) {
                    expected = hiLimit;
                } else {
                    double lo = c.minRadius, hi = hiLimit;
                    while (hi - lo > 0.25) {
                        const double mid = 0.5 * (lo + hi);
                        (timeAtMs(mid) < budget ? lo : hi) = mid;
                    }
                    expected = lo;
                }
                ++exits[std::min<std::uint64_t>(probes, 3) - 1];

                auto &registry = obs::MetricsRegistry::global();
                obs::Counter &queries =
                    registry.counter("cost.location_cache_queries");
                obs::Counter &builds =
                    registry.counter("cost.location_cache_builds");
                const std::uint64_t queries0 = queries.value();
                const std::uint64_t builds0 = builds.value();
                EXPECT_EQ(maxCutoffRadius(world, eye, profile, c), expected)
                    << "eye (" << eye.x << ", " << eye.y << ")";
#if COTERIE_TELEMETRY_ENABLED
                EXPECT_EQ(queries.value() - queries0, probes);
                EXPECT_EQ(builds.value() - builds0, 1u);
#else
                (void)queries0;
                (void)builds0;
#endif
            }
        }
    }
    EXPECT_GT(exits[0], 0u); // floor
    EXPECT_GT(exits[1], 0u); // ceiling
    EXPECT_GT(exits[2], 0u); // bisection
}

TEST(CutoffDeath, ImpossibleBudgetPanics)
{
    const auto world = makeWorld(GameId::Pool, 42);
    CutoffConstraint constraint;
    constraint.rtFiMs = 20.0; // exceeds the whole frame budget
    EXPECT_DEATH(maxCutoffRadius(world, world.bounds().center(),
                                 device::pixel2(), constraint),
                 "budget");
}

} // namespace
} // namespace coterie::core
