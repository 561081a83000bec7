/**
 * @file
 * Device render-cost model.
 *
 * The paper's Constraint 1 is an analytic statement: the mobile render
 * time of FI plus near BE, which is proportional to triangle count
 * (their ref [1]), must stay below 16.7 ms - RT_FI. We model render
 * time as base + ns/triangle * effective triangles, where effective
 * triangles apply a distance LOD falloff exactly as a production engine
 * would, and terrain tessellation contributes per covered area.
 * Constants are calibrated once against Table 1 (see device/phone.hh)
 * and reused for every experiment.
 */

#pragma once

#include <vector>

#include "world/world.hh"

namespace coterie::render {

/** Parameters of the triangle-throughput model. */
struct CostModelParams
{
    /** Nanoseconds of GPU time per effective triangle. */
    double nsPerTriangle = 50.0;
    /** Fixed per-frame cost (driver, setup, compose) in ms. */
    double baseMs = 1.0;
    /** LOD reference distance: at distance d, an object renders
     *  triangles * 1 / (1 + (d/lodDistance)^2). */
    double lodDistance = 25.0;
    /** Distance beyond which objects contribute nothing (engine cull). */
    double cullDistance = 600.0;
    /**
     * Engine LOD saturation: total effective triangles are compressed
     * as E / (1 + E / saturation) — a production engine keeps the
     * frame triangle budget roughly constant on huge scenes by
     * dropping LOD levels globally.
     */
    double saturationTriangles = 0.85e6;
};

/**
 * Effective triangle count seen from @p eye when rendering the depth
 * annulus [rMin, rMax] of the world (0, inf = whole scene).
 */
double effectiveTriangles(const world::VirtualWorld &world, geom::Vec2 eye,
                          double rMin, double rMax,
                          const CostModelParams &params = {});

/** Render time in ms for that annulus on a device with @p params. */
double renderTimeMs(const world::VirtualWorld &world, geom::Vec2 eye,
                    double rMin, double rMax,
                    const CostModelParams &params = {});

/**
 * Memoized cost queries for one eye location.
 *
 * The cutoff binary search evaluates `renderTimeMs` at the same
 * location a dozen times with different radii; the free function
 * re-runs the BVH disc query from scratch on every call. This cache
 * reads the BVH's footprint table once (every object within the
 * largest radius the search can reach) and keeps each object's
 * footprint metric, centre distance and LOD-weighted triangles,
 * bit-identical to the uncached path for any rMax <= maxRadius:
 * membership uses `world::footprintDistSq`, the exact test of
 * `Bvh::queryDisc`; the weight is the same rounded product the free
 * function adds; and summation keeps the BVH's leaf-slot order, which
 * is `queryDisc`'s visit order.
 *
 * Thread-compatibility contract (checked by the clang thread-safety
 * build, see support/thread_annotations.hh): an instance is owned by
 * one cutoff search on one thread — the partitioner constructs one per
 * pool task and never shares it across tasks — so no member needs a
 * COTERIE_GUARDED_BY. Sharing an instance across threads would need
 * its own annotated Mutex (`retainWithin` writes).
 */
class LocationCostCache
{
  public:
    LocationCostCache(const world::VirtualWorld &world, geom::Vec2 eye,
                      double maxRadius, const CostModelParams &params = {});

    /** Same value as the free `effectiveTriangles` (rMax <= maxRadius). */
    double effectiveTriangles(double rMin, double rMax) const;

    /** Same value as the free `renderTimeMs` (rMax <= maxRadius). */
    double renderTimeMs(double rMin, double rMax) const;

    /**
     * Drop, in place and in order, every object outside the disc of
     * @p radius (clamped to the cull distance). Queries with
     * rMax <= radius keep returning the same bits: the dropped objects
     * were outside their discs anyway. The cutoff search calls this
     * each time its bisection lowers the upper bound.
     */
    void retainWithin(double radius);

    /** Objects currently cached. */
    std::size_t size() const { return objects_.size(); }

  private:
    struct CachedObject
    {
        double footprintDistSq; ///< queryDisc's AABB-footprint metric
        double centerDist;      ///< distance used by the LOD falloff
        double weighted;        ///< triangles * lodWeight(centerDist)
    };

    const world::VirtualWorld &world_;
    double worldReach_; ///< eye to the farthest world corner, fixed
    CostModelParams params_;
    std::vector<CachedObject> objects_; ///< in BVH leaf-slot order
};

} // namespace coterie::render

