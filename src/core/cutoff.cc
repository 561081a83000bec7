#include "core/cutoff.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.hh"
#include "render/cost_model.hh"
#include "support/logging.hh"

namespace coterie::core {

double
nearBeRenderTimeMs(const world::VirtualWorld &world, geom::Vec2 location,
                   double cutoff, const device::PhoneProfile &profile)
{
    return render::renderTimeMs(world, location, 0.0, cutoff, profile.cost);
}

double
maxCutoffRadius(const world::VirtualWorld &world, geom::Vec2 location,
                const device::PhoneProfile &profile,
                const CutoffConstraint &constraint, double tolerance)
{
    const double budget = constraint.nearBudgetMs();
    COTERIE_ASSERT(budget > 0.0, "FI render time exceeds frame budget");

    const double diag = std::hypot(world.bounds().width(),
                                   world.bounds().height());
    const double hi_limit = std::min(constraint.maxRadius, diag);

    // Read the object set once for the whole search: every probe below
    // replays the cached per-object terms instead of re-running the BVH
    // disc query (the dominant cost of a probe), bit-identical to the
    // uncached nearBeRenderTimeMs.
    render::LocationCostCache cost(world, location, hi_limit,
                                   profile.cost);
    std::uint64_t probes = 0;
    const auto timeAtMs = [&](double cutoff) {
        ++probes;
        return cost.renderTimeMs(0.0, cutoff);
    };

    double radius;
    if (timeAtMs(constraint.minRadius) >= budget) {
        radius = constraint.minRadius;
    } else if (timeAtMs(hi_limit) < budget) {
        radius = hi_limit;
    } else {
        double lo = constraint.minRadius; // satisfies the constraint
        double hi = hi_limit;             // violates the constraint
        int iterations = 0;
        while (hi - lo > tolerance) {
            const double mid = 0.5 * (lo + hi);
            if (timeAtMs(mid) < budget) {
                lo = mid;
            } else {
                hi = mid;
                // Every later probe is below hi, so objects beyond it
                // can never count again.
                cost.retainWithin(hi);
            }
            ++iterations;
        }
        COTERIE_COUNT("cutoff.searches");
        COTERIE_OBSERVE("cutoff.search_iterations", iterations);
        radius = lo;
    }
    // Each probe is a BVH disc query saved relative to the uncached
    // path; counted once per search.
    COTERIE_COUNT_N("cost.location_cache_queries", probes);
    return radius;
}

} // namespace coterie::core
