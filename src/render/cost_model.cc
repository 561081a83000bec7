#include "render/cost_model.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "world/bvh.hh"

namespace coterie::render {

using geom::Vec2;

namespace {

double
lodWeight(double distance, const CostModelParams &params)
{
    const double ratio = distance / params.lodDistance;
    return 1.0 / (1.0 + ratio * ratio);
}

/** Distance from @p eye to the farthest corner of the world bounds —
 *  terrain does not extend past the world, so neither does its cost. */
double
worldReach(const world::VirtualWorld &world, Vec2 eye)
{
    const geom::Rect &b = world.bounds();
    double reach = 0.0;
    for (const Vec2 corner : {b.lo, b.hi, Vec2{b.lo.x, b.hi.y},
                              Vec2{b.hi.x, b.lo.y}}) {
        reach = std::max(reach, eye.distance(corner));
    }
    return reach;
}

/**
 * Terrain triangles in the annulus with LOD falloff, clipped at
 * @p reach = worldReach(world, eye):
 * integral of 2*pi*r * rho * w(r) dr over [rMin, rMax]
 *   = pi * rho * lod^2 * ln((1 + (rMax/lod)^2) / (1 + (rMin/lod)^2)).
 */
double
terrainEffectiveTriangles(const world::VirtualWorld &world, double reach,
                          double rMin, double rMax,
                          const CostModelParams &params)
{
    const double rho = world.terrain().params().trianglesPerM2;
    const double lod = params.lodDistance;
    const double hi = std::min({rMax, params.cullDistance, reach});
    if (hi <= rMin)
        return 0.0;
    const double a = 1.0 + (hi / lod) * (hi / lod);
    const double b = 1.0 + (rMin / lod) * (rMin / lod);
    return M_PI * rho * lod * lod * std::log(a / b);
}

} // namespace

double
effectiveTriangles(const world::VirtualWorld &world, Vec2 eye, double rMin,
                   double rMax, const CostModelParams &params)
{
    const double reach = std::min(rMax, params.cullDistance);
    double total = terrainEffectiveTriangles(world, worldReach(world, eye),
                                             rMin, rMax, params);
    if (reach > rMin) {
        // Callback disc query: BVH traversal order, no id-vector
        // allocation. LocationCostCache replays the same order, which
        // is what keeps the two paths bit-identical.
        world.forEachObjectWithin(eye, reach, [&](std::uint32_t id) {
            const world::WorldObject &obj = world.object(id);
            const double d = obj.footprint().distance(eye);
            if (d < rMin)
                return; // belongs to the inner layer
            total += obj.triangles * lodWeight(d, params);
        });
    }
    // Global LOD saturation (see CostModelParams::saturationTriangles).
    if (params.saturationTriangles > 0.0)
        total = total / (1.0 + total / params.saturationTriangles);
    return total;
}

double
renderTimeMs(const world::VirtualWorld &world, Vec2 eye, double rMin,
             double rMax, const CostModelParams &params)
{
    const double tris = effectiveTriangles(world, eye, rMin, rMax, params);
    return params.baseMs + tris * params.nsPerTriangle * 1e-6;
}

LocationCostCache::LocationCostCache(const world::VirtualWorld &world,
                                     Vec2 eye, double maxRadius,
                                     const CostModelParams &params)
    : world_(world), worldReach_(worldReach(world, eye)), params_(params)
{
    COTERIE_COUNT("cost.location_cache_builds");
    const double maxReach = std::min(maxRadius, params.cullDistance);
    if (maxReach <= 0.0)
        return;
    // One linear pass over the footprint table, in leaf-slot order:
    // the objects and order of queryDisc(eye, maxReach), so replaying
    // objects_ keeps effectiveTriangles() bit-identical to the uncached
    // free function (which sums in the same order).
    const world::Bvh &bvh = world.bvh();
    const double r2 = maxReach * maxReach;
    objects_.reserve(bvh.slotCount());
    for (std::size_t s = 0; s < bvh.slotCount(); ++s) {
        const double distSq = bvh.slotFootprintDistSq(s, eye);
        if (distSq > r2)
            continue;
        const double d = bvh.slotCenter(s).distance(eye);
        objects_.push_back(
            {distSq, d, bvh.slotTriangles(s) * lodWeight(d, params)});
    }
}

double
LocationCostCache::effectiveTriangles(double rMin, double rMax) const
{
    const double reach = std::min(rMax, params_.cullDistance);
    double total =
        terrainEffectiveTriangles(world_, worldReach_, rMin, rMax, params_);
    if (reach > rMin) {
        const double r2 = reach * reach;
        for (const CachedObject &obj : objects_) {
            if (obj.footprintDistSq > r2)
                continue; // outside this query's disc
            if (obj.centerDist < rMin)
                continue; // belongs to the inner layer
            total += obj.weighted;
        }
    }
    if (params_.saturationTriangles > 0.0)
        total = total / (1.0 + total / params_.saturationTriangles);
    return total;
}

void
LocationCostCache::retainWithin(double radius)
{
    const double reach = std::min(radius, params_.cullDistance);
    const double r2 = reach * reach;
    std::erase_if(objects_, [r2](const CachedObject &obj) {
        return obj.footprintDistSq > r2;
    });
}

double
LocationCostCache::renderTimeMs(double rMin, double rMax) const
{
    const double tris = effectiveTriangles(rMin, rMax);
    return params_.baseMs + tris * params_.nsPerTriangle * 1e-6;
}

} // namespace coterie::render
