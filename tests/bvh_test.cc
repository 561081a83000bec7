/**
 * @file
 * Property tests for the BVH: closest-hit and disc queries must agree
 * exactly with brute force over randomized worlds and rays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "geom/intersect.hh"
#include "support/rng.hh"
#include "world/bvh.hh"

namespace coterie::world {
namespace {

using geom::Aabb;
using geom::Hit;
using geom::Ray;
using geom::Vec2;
using geom::Vec3;

std::vector<WorldObject>
randomObjects(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<WorldObject> objects;
    for (int i = 0; i < n; ++i) {
        WorldObject obj;
        obj.id = static_cast<std::uint32_t>(i);
        const int kind = static_cast<int>(rng.uniformInt(0, 2));
        obj.position = {rng.uniform(-50, 50), rng.uniform(0, 10),
                        rng.uniform(-50, 50)};
        if (kind == 0) {
            obj.shape = Shape::Sphere;
            obj.dims = {rng.uniform(0.5, 3.0), 0, 0};
        } else if (kind == 1) {
            obj.shape = Shape::Box;
            obj.dims = {rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0),
                        rng.uniform(0.5, 4.0)};
        } else {
            obj.shape = Shape::CylinderY;
            obj.dims = {rng.uniform(0.3, 2.0), rng.uniform(1.0, 6.0), 0};
        }
        objects.push_back(obj);
    }
    return objects;
}

/** Brute-force closest hit for cross-checking. */
std::optional<std::pair<double, std::uint32_t>>
bruteClosest(const std::vector<WorldObject> &objects, const Ray &ray)
{
    std::optional<std::pair<double, std::uint32_t>> best;
    for (const WorldObject &obj : objects) {
        std::optional<double> t;
        switch (obj.shape) {
          case Shape::Sphere:
            t = geom::intersectSphere(ray, obj.position, obj.dims.x);
            break;
          case Shape::Box:
            t = geom::intersectBox(
                ray, Aabb{obj.position - obj.dims * 0.5,
                          obj.position + obj.dims * 0.5});
            break;
          case Shape::CylinderY:
            t = geom::intersectCylinderY(ray, obj.position, obj.dims.x,
                                         obj.dims.y);
            break;
        }
        if (t && (!best || *t < best->first))
            best = {{*t, obj.id}};
    }
    return best;
}

class BvhProperty : public testing::TestWithParam<std::uint64_t>
{
};

/**
 * Closest hit is a property of the object set, not of the tree shape
 * or traversal order: with the deterministic tie-break (min object id
 * among min-t hits) the traversal returns the brute-force answer bit
 * for bit. Both sides call the same geom::intersect* kernels, so t is
 * compared exactly. Two input sets: a small world with whole-ray
 * intervals, and a larger one where every seventh ray is clipped the
 * way depth layers clip it.
 */
TEST_P(BvhProperty, ClosestHitMatchesBruteForce)
{
    const struct
    {
        int objects;
        int rays;
        std::uint64_t objectSeed;
        std::uint64_t raySeed;
        double pitchScale;
        bool clipped;
    } cases[] = {{60, 500, GetParam(), GetParam() ^ 0xabc, 0.3, false},
                 {120, 2000, GetParam() ^ 0x5a5a, GetParam() ^ 0xfeed, 0.4,
                  true}};
    for (const auto &c : cases) {
        const auto objects = randomObjects(c.objects, c.objectSeed);
        const Bvh bvh(objects);
        Rng rng(c.raySeed);
        for (int i = 0; i < c.rays; ++i) {
            Ray ray;
            ray.origin = {rng.uniform(-60, 60), rng.uniform(-5, 20),
                          rng.uniform(-60, 60)};
            ray.dir = Vec3{rng.normal(), rng.normal() * c.pitchScale,
                           rng.normal()}
                          .normalized();
            if (c.clipped && i % 7 == 0)
                ray.tMax = rng.uniform(5.0, 80.0); // clipped layers too
            const Hit hit = bvh.closestHit(ray);
            const auto brute = bruteClosest(objects, ray);
            if (brute) {
                ASSERT_TRUE(hit.valid());
                EXPECT_EQ(hit.t, brute->first);
                EXPECT_EQ(hit.objectId, brute->second);
                EXPECT_EQ(hit.point, ray.at(hit.t));
            } else {
                EXPECT_FALSE(hit.valid());
            }
            EXPECT_EQ(bvh.anyHit(ray), brute.has_value());
        }
    }
}

TEST_P(BvhProperty, DiscQueryMatchesBruteForce)
{
    const auto objects = randomObjects(80, GetParam());
    const Bvh bvh(objects);
    Rng rng(GetParam() ^ 0xdef);
    for (int i = 0; i < 200; ++i) {
        const Vec2 center{rng.uniform(-60, 60), rng.uniform(-60, 60)};
        const double radius = rng.uniform(1.0, 30.0);
        auto got = bvh.queryDisc(center, radius);
        std::sort(got.begin(), got.end());

        std::vector<std::uint32_t> expected;
        const double r2 = radius * radius;
        for (const WorldObject &obj : objects) {
            const Aabb b = obj.bounds();
            const double dx = std::max(
                {b.lo.x - center.x, 0.0, center.x - b.hi.x});
            const double dz = std::max(
                {b.lo.z - center.y, 0.0, center.y - b.hi.z});
            if (dx * dx + dz * dz <= r2)
                expected.push_back(obj.id);
        }
        EXPECT_EQ(got, expected);
    }
}

/**
 * The footprint table the cost model scans: its slots are a permutation
 * of the objects carrying each object's own footprint centre and
 * triangles, and `queryDisc` visits exactly the objects whose
 * `bounds()` footprint lies within the disc, in leaf-slot order. Radii
 * include each tested object's own footprint distance, so the `<=`
 * edge is hit.
 */
TEST_P(BvhProperty, DiscQueryVisitsBoundsFilteredSlotsInOrder)
{
    auto objects = randomObjects(300, GetParam() ^ 0x51a7);
    for (WorldObject &obj : objects)
        obj.triangles = 100 + obj.id * 7;
    const Bvh bvh(objects);
    ASSERT_EQ(bvh.slotCount(), objects.size());
    std::vector<int> seen(objects.size(), 0);
    for (std::size_t s = 0; s < bvh.slotCount(); ++s) {
        const WorldObject &obj = objects[bvh.slotObject(s)];
        ++seen[obj.id];
        EXPECT_EQ(bvh.slotCenter(s), obj.footprint());
        EXPECT_EQ(bvh.slotTriangles(s), static_cast<double>(obj.triangles));
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(objects.size()));

    const auto boundsDistSq = [](const WorldObject &obj, Vec2 c) {
        const Aabb b = obj.bounds();
        return footprintDistSq(c, b.lo.x, b.hi.x, b.lo.z, b.hi.z);
    };
    Rng rng(GetParam() ^ 0x0dd);
    int edges = 0;
    for (int i = 0; i < 120; ++i) {
        const Vec2 center{rng.uniform(-70, 70), rng.uniform(-70, 70)};
        const auto &probe =
            objects[static_cast<std::size_t>(rng.uniformInt(0, 299))];
        const double edge = std::sqrt(boundsDistSq(probe, center));
        for (const double radius :
             {rng.uniform(0.5, 60.0), edge, std::nextafter(edge, 0.0),
              std::nextafter(edge, 1e9)}) {
            const double r2 = radius * radius;
            edges += r2 == boundsDistSq(probe, center);
            std::vector<std::uint32_t> expected;
            for (std::size_t s = 0; s < bvh.slotCount(); ++s) {
                const WorldObject &obj = objects[bvh.slotObject(s)];
                EXPECT_EQ(bvh.slotFootprintDistSq(s, center),
                          boundsDistSq(obj, center));
                if (boundsDistSq(obj, center) <= r2)
                    expected.push_back(obj.id);
            }
            std::vector<std::uint32_t> got;
            bvh.queryDisc(center, radius,
                          [&](std::uint32_t id) { got.push_back(id); });
            EXPECT_EQ(got, expected) << "radius " << radius;
        }
    }
    // Some radius landed exactly on a footprint distance.
    EXPECT_GT(edges, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BvhProperty,
                         testing::Values(1, 2, 3, 4, 5));

/** SAH binning degenerates to median when every centroid coincides. */
TEST(Bvh, SahHandlesCoincidentCenters)
{
    std::vector<WorldObject> objects;
    for (int i = 0; i < 37; ++i) {
        WorldObject obj;
        obj.id = static_cast<std::uint32_t>(i);
        obj.shape = Shape::Sphere;
        obj.position = {3.0, 1.0, -2.0}; // all identical
        obj.dims = {0.5 + 0.01 * i, 0, 0};
        objects.push_back(obj);
    }
    const Bvh bvh(objects);
    Ray ray;
    ray.origin = {-20, 1, -2};
    ray.dir = {1, 0, 0};
    const Hit hit = bvh.closestHit(ray);
    ASSERT_TRUE(hit.valid());
    // Largest sphere's surface is nearest; ties impossible here.
    EXPECT_EQ(hit.objectId, 36u);
    EXPECT_EQ(bvh.queryDisc({3.0, -2.0}, 1.0).size(), objects.size());
}

TEST(Bvh, SahSingleObjectAndEmpty)
{
    const Bvh empty({});
    Ray ray;
    ray.origin = {0, 1, 0};
    ray.dir = {1, 0, 0};
    EXPECT_FALSE(empty.closestHit(ray).valid());

    std::vector<WorldObject> one;
    WorldObject obj;
    obj.shape = Shape::Sphere;
    obj.position = {6, 1, 0};
    obj.dims = {1.0, 0, 0};
    one.push_back(obj);
    const Bvh bvh(one);
    const Hit hit = bvh.closestHit(ray);
    ASSERT_TRUE(hit.valid());
    EXPECT_NEAR(hit.t, 5.0, 1e-12);
}

/**
 * Overlapping identical shapes: the tie-break must pick the smallest
 * object id regardless of where the builder put each object.
 */
TEST(Bvh, TieBreaksOnObjectIdAcrossPolicies)
{
    std::vector<WorldObject> objects;
    for (int i = 0; i < 6; ++i) {
        WorldObject obj;
        obj.id = static_cast<std::uint32_t>(i);
        obj.shape = Shape::Box;
        obj.position = {10, 1, 0};
        obj.dims = {2, 2, 2};
        objects.push_back(obj);
    }
    // Shuffle insertion order by reversing ids' positions in the vector
    // (ids stay attached to the objects).
    std::reverse(objects.begin(), objects.end());
    Ray ray;
    ray.origin = {0, 1, 0};
    ray.dir = {1, 0, 0};
    const Bvh bvh(objects);
    const Hit hit = bvh.closestHit(ray);
    ASSERT_TRUE(hit.valid());
    EXPECT_EQ(hit.objectId, 0u);
}

/** The callback overload yields exactly the vector overload's order. */
TEST(Bvh, QueryDiscCallbackMatchesVector)
{
    const auto objects = randomObjects(90, 77);
    const Bvh bvh(objects);
    Rng rng(78);
    for (int i = 0; i < 100; ++i) {
        const Vec2 center{rng.uniform(-60, 60), rng.uniform(-60, 60)};
        const double radius = rng.uniform(1.0, 40.0);
        const auto vec = bvh.queryDisc(center, radius);
        std::vector<std::uint32_t> cb;
        bvh.queryDisc(center, radius,
                      [&](std::uint32_t id) { cb.push_back(id); });
        EXPECT_EQ(cb, vec);
    }
}

TEST(Bvh, EmptyWorld)
{
    const std::vector<WorldObject> none;
    const Bvh bvh(none);
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {1, 0, 0};
    EXPECT_FALSE(bvh.closestHit(ray).valid());
    EXPECT_FALSE(bvh.anyHit(ray));
    EXPECT_TRUE(bvh.queryDisc({0, 0}, 100.0).empty());
}

TEST(Bvh, AnyHitAgreesWithClosestHit)
{
    const auto objects = randomObjects(40, 9);
    const Bvh bvh(objects);
    Rng rng(10);
    for (int i = 0; i < 300; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-60, 60), rng.uniform(-5, 15),
                      rng.uniform(-60, 60)};
        ray.dir = Vec3{rng.normal(), rng.normal() * 0.2, rng.normal()}
                      .normalized();
        EXPECT_EQ(bvh.anyHit(ray), bvh.closestHit(ray).valid());
    }
}

TEST_P(BvhProperty, PacketLanesMatchScalarClosestHit)
{
    // The packet traversal must be bit-identical per lane to the
    // scalar traversal on that lane's ray — same t, id, point, and
    // normal — including lanes that miss and packets whose lanes point
    // into different octants (which defeats lane-0's ordered descent
    // for the other lanes; the per-lane prune + tie-break rule keeps
    // the result traversal-order independent).
    const auto objects = randomObjects(60, GetParam());
    const Bvh bvh(objects);
    Rng rng(GetParam() ^ 0x9a7);
    for (int i = 0; i < 200; ++i) {
        const Vec3 origin{rng.uniform(-60, 60), rng.uniform(-5, 20),
                          rng.uniform(-60, 60)};
        double dx[geom::RayPacket::kLanes], dy[geom::RayPacket::kLanes],
            dz[geom::RayPacket::kLanes];
        const bool mixed = i % 3 == 0;
        for (int l = 0; l < geom::RayPacket::kLanes; ++l) {
            Vec3 dir{rng.normal(), rng.normal() * 0.3, rng.normal()};
            // Every third packet scatters its lanes across octants
            // instead of the coherent row-batch shape.
            if (mixed && l % 2 == 1)
                dir = dir * -1.0;
            dir = dir.normalized();
            dx[l] = dir.x;
            dy[l] = dir.y;
            dz[l] = dir.z;
        }
        // Alternate the whole-scene interval with a depth-layer-style
        // narrow clip window.
        const double t_min = i % 4 == 0 ? 5.0 : 1e-4;
        const double t_max = i % 4 == 0 ? 40.0 : 1e30;
        const geom::RayPacket pack =
            geom::makeRayPacket(origin, dx, dy, dz, t_min, t_max);
        Hit packet[geom::RayPacket::kLanes];
        bvh.closestHitPacket(pack, packet);
        for (int l = 0; l < geom::RayPacket::kLanes; ++l) {
            const Hit scalar = bvh.closestHit(pack.lane(l));
            EXPECT_EQ(packet[l].valid(), scalar.valid());
            EXPECT_EQ(packet[l].objectId, scalar.objectId);
            EXPECT_EQ(packet[l].t, scalar.t);
            if (scalar.valid()) {
                EXPECT_EQ(packet[l].point, scalar.point);
                EXPECT_EQ(packet[l].normal, scalar.normal);
            }
        }
    }
}

TEST(Bvh, PacketOnEmptyWorldMissesAllLanes)
{
    const Bvh bvh(std::vector<WorldObject>{});
    double dx[geom::RayPacket::kLanes] = {1, 0, 0, -1};
    double dy[geom::RayPacket::kLanes] = {0, 1, 0, 0};
    double dz[geom::RayPacket::kLanes] = {0, 0, 1, 0};
    const geom::RayPacket pack =
        geom::makeRayPacket({0, 0, 0}, dx, dy, dz, 1e-4, 1e30);
    Hit out[geom::RayPacket::kLanes];
    bvh.closestHitPacket(pack, out);
    for (int l = 0; l < geom::RayPacket::kLanes; ++l) {
        EXPECT_FALSE(out[l].valid());
        EXPECT_EQ(out[l].t, pack.tMax);
    }
}

TEST(Bvh, RespectsRayInterval)
{
    std::vector<WorldObject> objects;
    WorldObject obj;
    obj.shape = Shape::Sphere;
    obj.position = {10, 0, 0};
    obj.dims = {1.0, 0, 0};
    objects.push_back(obj);
    const Bvh bvh(objects);
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {1, 0, 0};
    ray.tMax = 5.0; // sphere is at t=9
    EXPECT_FALSE(bvh.closestHit(ray).valid());
    ray.tMax = 1e30;
    ray.tMin = 12.0; // past the sphere
    EXPECT_FALSE(bvh.closestHit(ray).valid());
    ray.tMin = 1e-4;
    EXPECT_TRUE(bvh.closestHit(ray).valid());
}

} // namespace
} // namespace coterie::world
