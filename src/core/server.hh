/**
 * @file
 * Coterie server: offline pre-rendering and per-grid-point encoded
 * frame metadata.
 *
 * The real server pre-renders and x264-encodes a panoramic far-BE frame
 * for every reachable grid point. At simulation scale we expose the two
 * things the online system consumes: encoded frame *sizes* (from the
 * calibrated H.264 size model, with per-region content complexity) and
 * on-demand *actual frames* (from the software renderer) for the
 * visual-quality experiments.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/pano_cache.hh"
#include "core/partitioner.hh"
#include "image/codec.hh"
#include "render/renderer.hh"
#include "support/thread_annotations.hh"
#include "world/grid.hh"

namespace coterie::core {

/** Frame catalogue configuration. */
struct FrameStoreParams
{
    int panoWidth = 3840;  ///< the paper's 4K panoramas
    int panoHeight = 2160;
    /** Density (tri/m^2) that saturates content complexity at 1.0. */
    double complexitySaturationDensity = 2500.0;
    /** Byte budget for the de-duplicating panorama render cache
     *  (ignored when sharedPanoCache is set). */
    std::size_t panoCacheBytes = 256ull << 20;
    /**
     * Optional externally owned render cache. A fleet passes one
     * cache to every session's FrameStore so same-world sessions
     * share renders (keys carry the world tag, so distinct worlds
     * can never collide); null = a private cache of panoCacheBytes,
     * the pre-fleet behaviour.
     */
    std::shared_ptr<PanoramaRenderCache> sharedPanoCache;
};

/**
 * Pre-rendered frame catalogue over one world + grid + partition.
 * Sizes are deterministic per grid point.
 */
class FrameStore
{
  public:
    FrameStore(const world::VirtualWorld &world, const world::GridMap &grid,
               const RegionIndex &regions, FrameStoreParams params = {});

    /**
     * The far-BE panoramas clients standing at @p positions receive,
     * in order, through one `PanoramaRenderCache::resolve` batch:
     * positions within the same quantization cell (pitch =
     * max(@p distThresh, grid spacing) — the paper's FI-location
     * similarity radius) share one render keyed by the cell's
     * representative point. @p threads as in renderFarBe; it also
     * sets the batch's render fan-out. @p cacheOwner is charged for
     * the renders this batch performs.
     */
    std::vector<std::shared_ptr<const image::Image>>
    farBePanorama(const std::vector<geom::Vec2> &positions,
                  double distThresh, int width, int height,
                  int threads = 0, std::uint32_t cacheOwner = 0) const;

    /**
     * A fully-resolved online far-BE lookup: the cache key plus the
     * render inputs it maps to, i.e. the two halves of a PanoRequest
     * (callers that batch requests from several stores, like the
     * fleet's barrier render pass, build their requests from these).
     */
    struct FarBeLookup
    {
        PanoKey key;
        geom::Vec2 rep;     ///< cell representative eye position
        double cutoff = 0.0; ///< far-BE cutoff radius at rep
    };

    /** Resolve the lookup farBePanorama performs for @p pos. */
    FarBeLookup farBeLookup(geom::Vec2 pos, double distThresh, int width,
                            int height) const;

    /** Render the panorama a resolved lookup describes (cache-free;
     *  the caller owns publication). @p threads: 0 = rows on the
     *  shared pool, 1 = serial. */
    image::Image renderFarBe(const FarBeLookup &lookup,
                             int threads = 0) const;

    /** Render-cache effectiveness counters (hits, misses, ...). */
    PanoCacheStats panoCacheStats() const { return panoCache_->stats(); }

    /** The render cache itself (shared across a fleet when injected). */
    PanoramaRenderCache &panoCache() const { return *panoCache_; }

    /** World identity folded into every render-cache key. */
    std::uint64_t worldTag() const { return worldTag_; }

    /** Encoded far-BE frame size at a grid point (bytes). */
    std::uint64_t farBeBytes(world::GridPoint g) const;

    /** Encoded whole-BE frame size (Furion-style) at a grid point. */
    std::uint64_t wholeBeBytes(world::GridPoint g) const;

    /** Encoded per-eye FoV frame size (Thin-client). */
    std::uint64_t fovFrameBytes(world::GridPoint g) const;

    /** Mean sizes over sampled grid points (for reporting). */
    double meanFarBeKb(int samples = 256, std::uint64_t seed = 3) const;
    double meanWholeBeKb(int samples = 256, std::uint64_t seed = 3) const;

    const world::GridMap &grid() const { return grid_; }
    const RegionIndex &regions() const { return regions_; }
    const world::VirtualWorld &world() const { return world_; }
    const FrameStoreParams &params() const { return params_; }

  private:
    /** Content complexity in [0,1] for the far / whole layer at g. */
    double farComplexity(geom::Vec2 p) const;
    double wholeComplexity(geom::Vec2 p) const;

    const world::VirtualWorld &world_;
    const world::GridMap &grid_;
    const RegionIndex &regions_;
    FrameStoreParams params_;
    /** World identity folded into every cache key. */
    std::uint64_t worldTag_;
    /** De-dups far-BE panorama renders (internally synchronized).
     *  Either injected (fleet-shared) or privately owned. */
    std::shared_ptr<PanoramaRenderCache> panoCache_;
    /**
     * Complexity cached per leaf region (cheap, stable, deterministic —
     * the cached value never depends on which thread computed it).
     * Guarded so size queries may run from pool tasks.
     */
    mutable support::Mutex cplxMutex_{"FrameStore::cplxMutex_"};
    mutable std::unordered_map<std::uint32_t, double>
        farCplx_ COTERIE_GUARDED_BY(cplxMutex_);
    mutable std::unordered_map<std::uint32_t, double>
        wholeCplx_ COTERIE_GUARDED_BY(cplxMutex_);
};

} // namespace coterie::core

