/**
 * @file
 * Tests for the procedural terrain: determinism, continuity, flat
 * floors, ray-march/heightfield consistency, the foothold query used to
 * place the player camera, and the tabulated noise lattice against the
 * hashed one.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "support/rng.hh"
#include "world/terrain.hh"

namespace coterie::world {
namespace {

using geom::Ray;
using geom::Vec2;
using geom::Vec3;

TEST(Terrain, DeterministicInSeed)
{
    TerrainParams p;
    p.seed = 77;
    Terrain a(p), b(p);
    for (double x = 0; x < 50; x += 7.3)
        EXPECT_DOUBLE_EQ(a.heightAt({x, x * 2}), b.heightAt({x, x * 2}));
    p.seed = 78;
    Terrain c(p);
    bool differs = false;
    for (double x = 0; x < 50; x += 7.3)
        differs |= a.heightAt({x, x}) != c.heightAt({x, x});
    EXPECT_TRUE(differs);
}

TEST(Terrain, HeightBoundedByAmplitude)
{
    TerrainParams p;
    p.amplitude = 3.0;
    Terrain t(p);
    for (double x = -100; x < 100; x += 3.7)
        for (double y = -100; y < 100; y += 11.1)
            EXPECT_LE(std::abs(t.heightAt({x, y})), p.amplitude + 1e-9);
}

TEST(Terrain, Continuity)
{
    Terrain t{TerrainParams{}};
    const double h0 = t.heightAt({10.0, 10.0});
    const double h1 = t.heightAt({10.001, 10.0});
    EXPECT_NEAR(h0, h1, 0.01);
}

TEST(Terrain, FlatFloorIsZero)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p);
    EXPECT_DOUBLE_EQ(t.heightAt({12.3, -4.5}), 0.0);
    EXPECT_EQ(t.normalAt({1, 1}), Vec3(0.0, 1.0, 0.0));
}

TEST(Terrain, FootholdEqualsHeight)
{
    Terrain t{TerrainParams{}};
    const Vec2 p{31.0, 8.0};
    EXPECT_DOUBLE_EQ(t.foothold(p), t.heightAt(p));
}

TEST(Terrain, NormalIsUnitAndUpish)
{
    Terrain t{TerrainParams{}};
    for (double x = 0; x < 60; x += 13.7) {
        const Vec3 n = t.normalAt({x, 2 * x});
        EXPECT_NEAR(n.length(), 1.0, 1e-9);
        EXPECT_GT(n.y, 0.5); // gentle terrain: mostly up
    }
}

TEST(Terrain, DownwardRayHitsSurfaceAtHeight)
{
    Terrain t{TerrainParams{}};
    const Vec2 ground{25.0, 40.0};
    Ray ray;
    ray.origin = geom::lift(ground, 50.0);
    ray.dir = {0.0, -1.0, 0.0};
    const auto hit = t.intersect(ray, 1000.0);
    ASSERT_TRUE(hit.has_value());
    const Vec3 p = ray.at(*hit);
    EXPECT_NEAR(p.y, t.heightAt(p.ground()), 0.05);
}

TEST(Terrain, UpwardRayEscapes)
{
    Terrain t{TerrainParams{}};
    Ray ray;
    ray.origin = {10.0, 10.0, 10.0};
    ray.dir = Vec3{0.1, 1.0, 0.1}.normalized();
    EXPECT_FALSE(t.intersect(ray, 1000.0).has_value());
}

TEST(Terrain, RayStartingBelowSurfaceIsClippedOut)
{
    Terrain t{TerrainParams{}};
    Ray ray;
    // Start well below any terrain and look horizontally: the clipped
    // start is below ground, which the renderer treats as "clipped".
    ray.origin = {10.0, -50.0, 10.0};
    ray.dir = {1.0, 0.0, 0.0};
    EXPECT_FALSE(t.intersect(ray, 200.0).has_value());
}

TEST(Terrain, FlatFloorRayIntersection)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p);
    Ray ray;
    ray.origin = {0.0, 2.0, 0.0};
    ray.dir = Vec3{1.0, -1.0, 0.0}.normalized();
    const auto hit = t.intersect(ray, 100.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(ray.at(*hit).y, 0.0, 1e-9);
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** FNV-1a over the little-endian bytes of @p bits, folded into @p h. */
void
foldBits(std::uint64_t &h, std::uint64_t bits)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

TEST(Terrain, MarchMatchesReferenceOverRaySweep)
{
    // The march's hit/miss decisions and exact hit distances over a ray
    // sweep, pinned to values recorded from the original per-sample
    // reference march: the digest folds every ray's hit distance bits
    // (all-ones for a miss) in sweep order. Run untabulated and with a
    // lattice table the sweep's rays march out of.
    constexpr int kGoldenHits = 281;
    constexpr int kGoldenMisses = 349;
    constexpr std::uint64_t kGoldenDigest = 0xe7c2af1b4ccf9eefull;
    TerrainParams p;
    p.seed = 9;
    p.amplitude = 4.0;
    const geom::Rect cover{{-50.0, -30.0}, {50.0, 30.0}};
    for (const Terrain &t : {Terrain(p), Terrain(p, cover)}) {
        int hits = 0, misses = 0;
        std::uint64_t digest = 1469598103934665603ull;
        for (double ox = -40; ox <= 40; ox += 16.0) {
            for (double oy : {1.5, 6.0, 30.0}) {
                for (double pitch : {-0.8, -0.2, -0.02, 0.0, 0.15}) {
                    for (double yaw = 0.0; yaw < 6.0; yaw += 0.9) {
                        Ray ray;
                        ray.origin = {ox, oy, -ox * 0.5};
                        ray.dir = Vec3{std::cos(yaw) * std::cos(pitch),
                                       std::sin(pitch),
                                       std::sin(yaw) * std::cos(pitch)}
                                      .normalized();
                        const auto hit = t.intersect(ray, 300.0);
                        foldBits(digest, hit ? bitsOf(*hit) : ~0ull);
                        ++(hit ? hits : misses);
                    }
                }
            }
        }
        // The sweep must exercise both outcomes to mean anything.
        EXPECT_GT(hits, 100);
        EXPECT_GT(misses, 100);
        EXPECT_EQ(hits, kGoldenHits);
        EXPECT_EQ(misses, kGoldenMisses);
        EXPECT_EQ(digest, kGoldenDigest)
            << "sweep digest 0x" << std::hex << digest;
    }
}

TEST(Terrain, AbortBeyondPreservesAcceptedHits)
{
    // Contract used by the renderer: capping the march at a known
    // object hit may only change outcomes *beyond* the cap. If the
    // capped march reports a hit, it is the uncapped hit; and any
    // uncapped hit at or before the cap survives capping.
    TerrainParams p;
    p.seed = 5;
    Terrain t(p);
    Rng rng(31);
    for (int i = 0; i < 400; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-50, 50), rng.uniform(0.5, 25),
                      rng.uniform(-50, 50)};
        ray.dir = Vec3{rng.normal(), rng.normal() * 0.4, rng.normal()}
                      .normalized();
        const auto full = t.intersect(ray, 200.0);
        const double cap = rng.uniform(0.5, 150.0);
        const auto capped = t.intersect(ray, 200.0, cap);
        if (capped) {
            ASSERT_TRUE(full.has_value());
            EXPECT_EQ(*capped, *full);
        }
        if (full && *full <= cap) {
            ASSERT_TRUE(capped.has_value());
            EXPECT_EQ(*capped, *full);
        }
    }
    // An infinite cap is exactly the uncapped march.
    Ray ray;
    ray.origin = {3.0, 8.0, -2.0};
    ray.dir = Vec3{0.6, -0.25, 0.4}.normalized();
    const auto inf_cap = t.intersect(
        ray, 200.0, std::numeric_limits<double>::infinity());
    const auto plain = t.intersect(ray, 200.0);
    ASSERT_EQ(inf_cap.has_value(), plain.has_value());
    if (plain) {
        EXPECT_EQ(*inf_cap, *plain);
    }
}

/**
 * Independent oracle for the lattice table: the same params built with
 * a cover (table lookups) and without one (every lookup hashes) must
 * agree bit for bit on every query, across the table's edges.
 */
TEST(Terrain, LatticeTableMatchesHashedLattice)
{
    TerrainParams p;
    p.seed = 13;
    p.amplitude = 5.0;
    p.featureScale = 40.0;
    p.octaves = 3;
    const geom::Rect cover{{-30.0, -20.0}, {70.0, 50.0}};
    const Terrain tabulated(p, cover);
    const Terrain hashed(p);
    ASSERT_GT(tabulated.latticePoints(), 0u);
    EXPECT_EQ(hashed.latticePoints(), 0u);

    // Every lattice line of every octave from well outside the table to
    // well outside on the other side, hit exactly and one ulp to either
    // side: the grid straddles each table edge and corner, includes
    // negative coordinates and exact lattice boundaries.
    const double margin = Terrain::kLatticeMargin * p.featureScale;
    const auto lines = [&](double lo, double hi) {
        std::vector<double> out;
        double freq = 1.0 / p.featureScale;
        for (int o = 0; o < p.octaves; ++o, freq *= 2.0) {
            const auto k0 = static_cast<std::int64_t>(
                std::floor((lo - margin) * freq)) - 2;
            const auto k1 = static_cast<std::int64_t>(
                std::ceil((hi + margin) * freq)) + 2;
            for (std::int64_t k = k0; k <= k1; ++k) {
                const double x = static_cast<double>(k) / freq;
                out.push_back(std::nextafter(x, -1e300));
                out.push_back(x);
                out.push_back(std::nextafter(x, 1e300));
            }
        }
        return out;
    };
    const std::vector<double> xs = lines(cover.lo.x, cover.hi.x);
    const std::vector<double> ys = lines(cover.lo.y, cover.hi.y);
    ASSERT_LT(xs.front(), cover.lo.x - margin);
    ASSERT_GT(xs.back(), cover.hi.x + margin);
    int mismatches = 0;
    for (const double x : xs) {
        for (const double y : ys) {
            const Vec2 q{x, y};
            const Vec3 na = tabulated.normalAt(q);
            const Vec3 nb = hashed.normalAt(q);
            const bool same =
                bitsOf(tabulated.heightAt(q)) == bitsOf(hashed.heightAt(q)) &&
                bitsOf(na.x) == bitsOf(nb.x) &&
                bitsOf(na.y) == bitsOf(nb.y) &&
                bitsOf(na.z) == bitsOf(nb.z) &&
                tabulated.colorAt(q) == hashed.colorAt(q);
            if (!same && ++mismatches <= 5)
                ADD_FAILURE() << "table != hash at (" << x << ", " << y
                              << ")";
        }
    }
    EXPECT_EQ(mismatches, 0) << "of " << xs.size() * ys.size() << " points";

    // Rays from inside the cover and from outside the table, marching
    // out of (or into) it: identical hit decisions and distances, with
    // hits on both sides of the table edge.
    Rng rng(17);
    int inside = 0, outside = 0;
    for (int i = 0; i < 600; ++i) {
        Ray ray;
        const double reach = (i % 2 == 0) ? 0.0 : margin + 60.0;
        ray.origin = {rng.uniform(cover.lo.x - reach, cover.hi.x + reach),
                      rng.uniform(1.0, 12.0),
                      rng.uniform(cover.lo.y - reach, cover.hi.y + reach)};
        ray.dir = Vec3{rng.normal(), -std::abs(rng.normal()) * 0.03,
                       rng.normal()}
                      .normalized();
        const auto a = tabulated.intersect(ray, 600.0);
        const auto b = hashed.intersect(ray, 600.0);
        ASSERT_EQ(a.has_value(), b.has_value()) << "ray " << i;
        if (!a)
            continue;
        EXPECT_EQ(bitsOf(*a), bitsOf(*b)) << "ray " << i;
        const Vec2 g = ray.at(*a).ground();
        const bool in_table = g.x > cover.lo.x - margin &&
                              g.x < cover.hi.x + margin &&
                              g.y > cover.lo.y - margin &&
                              g.y < cover.hi.y + margin;
        ++(in_table ? inside : outside);
    }
    EXPECT_GT(inside, 20);
    EXPECT_GT(outside, 20);
}

TEST(Terrain, FlatTerrainBuildsNoTable)
{
    TerrainParams p;
    p.flat = true;
    const Terrain t(p, geom::Rect{{0.0, 0.0}, {100.0, 100.0}});
    EXPECT_EQ(t.latticePoints(), 0u);
}

TEST(Terrain, TrianglesWithinScalesWithArea)
{
    TerrainParams p;
    p.trianglesPerM2 = 10.0;
    Terrain t(p);
    const double t1 = t.trianglesWithin({0, 0}, 10.0);
    const double t2 = t.trianglesWithin({0, 0}, 20.0);
    EXPECT_NEAR(t2 / t1, 4.0, 1e-9);
    EXPECT_NEAR(t1, 10.0 * M_PI * 100.0, 1e-6);
}

TEST(Terrain, ColorVariesAcrossTerrain)
{
    Terrain t{TerrainParams{}};
    const auto c1 = t.colorAt({0, 0});
    bool varies = false;
    for (double x = 5; x < 200 && !varies; x += 17)
        varies = !(t.colorAt({x, x}) == c1);
    EXPECT_TRUE(varies);
}

} // namespace
} // namespace coterie::world
