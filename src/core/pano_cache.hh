/**
 * @file
 * Server-side panorama render de-duplication.
 *
 * The Coterie server renders one far-BE panorama per distinct
 * (world, quantized location, cutoff, resolution) — every client whose
 * FI location quantizes to the same cell shares the same frame (the
 * paper's frame-similarity premise applied server-side). This cache
 * makes that sharing explicit through one protocol: `resolve` takes a
 * batch of requests and serves each from the cache or from one render
 * per distinct missing key (see `resolve` for its three phases).
 *
 * Memory is bounded by a byte budget with LRU eviction. Everything is
 * observable: `server.pano_cache.{hit,miss,evicted_bytes}` counters,
 * a `server.pano_cache.bytes` gauge, and a `server.pano_cache.render`
 * trace span around each actual render.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "image/image.hh"
#include "support/rng.hh"
#include "support/thread_annotations.hh"

namespace coterie::core {

/**
 * Identity of one cached panorama: a far-BE lookup's quantized
 * location (`qx`/`qy` are cell indices at the pitch whose bit pattern
 * `pitchBits` holds). `cutoffBits` carries the far-BE cutoff radius bit
 * pattern so a partition change can never alias a stale frame.
 */
struct PanoKey
{
    std::uint64_t worldTag = 0;   ///< world identity (name + object count)
    std::int64_t qx = 0;          ///< quantized x (cell index)
    std::int64_t qy = 0;          ///< quantized y (cell index)
    std::uint64_t cutoffBits = 0; ///< bit pattern of the cutoff radius
    std::uint64_t pitchBits = 0;  ///< bit pattern of the cell pitch
    int width = 0;                ///< panorama resolution
    int height = 0;

    bool operator==(const PanoKey &) const = default;
};

struct PanoKeyHash
{
    std::size_t
    operator()(const PanoKey &k) const
    {
        std::uint64_t h = hashMix(k.worldTag);
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.qx)));
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.qy)));
        h = hashCombine(h, hashMix(k.cutoffBits));
        h = hashCombine(h, hashMix(k.pitchBits));
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.width)));
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.height)));
        return static_cast<std::size_t>(h);
    }
};

/** Snapshot of cache effectiveness (all cumulative except bytes/entries). */
struct PanoCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0; ///< renders actually performed
    /** Always 0 (no request waits on another's render); kept only
     *  because perfbench reads it into its `pano_cache.joins` key. */
    std::uint64_t inflightJoins = 0;
    std::uint64_t evictions = 0;
    std::uint64_t evictedBytes = 0;
    std::uint64_t bytes = 0;   ///< resident pixel bytes right now
    std::uint64_t entries = 0; ///< resident panoramas right now
};

/** One panorama a `resolve` batch asks for. */
struct PanoRequest
{
    PanoKey key;
    /** Session charged for the residency if this request renders
     *  (0 = the solo/unattributed owner). */
    std::uint32_t owner = 0;
    /** Produces the panorama; called only for the first miss of a key. */
    std::function<image::Image()> render;
};

/**
 * Byte-budgeted panorama cache. Thread-safe: the mutex covers the two
 * serial phases of `resolve`, and renders run outside it.
 */
class PanoramaRenderCache
{
  public:
    explicit PanoramaRenderCache(std::size_t budgetBytes)
        : budgetBytes_(budgetBytes)
    {
    }

    PanoramaRenderCache(const PanoramaRenderCache &) = delete;
    PanoramaRenderCache &operator=(const PanoramaRenderCache &) = delete;

    /**
     * Serve @p requests, returning their panoramas in request order.
     * Hit/miss counts, charges and evictions are pure functions of the
     * request order, whatever the thread count:
     *
     *  - Phase A (serial, request order): a resident key is a hit and
     *    stamps its LRU use; the first request for an absent key is
     *    the miss that claims its render; every later request for a
     *    claimed key is a hit too, as if the claimed render had
     *    completed before it arrived.
     *  - Phase B (parallel on the pool, @p threads as in
     *    support::parallelFor): each claim's `render` runs once,
     *    outside the lock.
     *  - Phase C (serial, same order): each render is published,
     *    charged to its claim's owner and stamped, and the budget is
     *    enforced after every publish. Sibling sessions hit each
     *    other's entries for free; the session whose request rendered
     *    an entry pays for its residency, and eviction takes victims
     *    from the heaviest-charged owner first, so one hot session
     *    cannot starve the others' budget.
     *
     * A claim never outlives the call that made it. If a render
     * throws, nothing from the batch is published, its keys stay
     * absent (the next batch renders them) and the exception
     * propagates. Should an overlapping call publish a key first, that
     * entry is kept and this call's render of it is dropped uncharged.
     */
    std::vector<std::shared_ptr<const image::Image>>
    resolve(const std::vector<PanoRequest> &requests, int threads = 0);

    /** Resident bytes currently charged to @p owner. */
    std::uint64_t ownerBytes(std::uint32_t owner) const;

    PanoCacheStats stats() const;

    std::size_t budgetBytes() const { return budgetBytes_; }

  private:
    struct Entry
    {
        std::shared_ptr<const image::Image> image;
        std::uint64_t lastUse = 0;
        std::size_t bytes = 0;
        /** Session charged for this entry's residency. */
        std::uint32_t owner = 0;
    };

    /** Evict entries until within budget: LRU within the
     *  heaviest-charged owner (single owner == plain global LRU). */
    void evictLocked() COTERIE_REQUIRES(mutex_);

    const std::size_t budgetBytes_;
    mutable support::Mutex mutex_{"PanoramaRenderCache::mutex_"};
    std::unordered_map<PanoKey, Entry, PanoKeyHash>
        entries_ COTERIE_GUARDED_BY(mutex_);
    /** Resident bytes charged per owner (absent == 0). */
    std::unordered_map<std::uint32_t, std::uint64_t>
        ownerBytes_ COTERIE_GUARDED_BY(mutex_);
    std::uint64_t useClock_ COTERIE_GUARDED_BY(mutex_) = 0;
    std::uint64_t bytes_ COTERIE_GUARDED_BY(mutex_) = 0;
    PanoCacheStats stats_ COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::core
