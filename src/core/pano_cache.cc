#include "core/pano_cache.hh"

#include <utility>

#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

namespace coterie::core {

namespace {

/**
 * Emit cumulative hit/miss counter tracks while a capture is active so
 * trace_report can chart the hit ratio over a run. Values are read
 * under the cache lock by the caller.
 */
void
tracePanoCounters(std::uint64_t hits, std::uint64_t misses)
{
    if (!obs::flight::capturing())
        return;
    obs::flight::recordCounter("server.pano_cache.hits",
                               static_cast<double>(hits));
    obs::flight::recordCounter("server.pano_cache.misses",
                               static_cast<double>(misses));
}

} // namespace

std::vector<std::shared_ptr<const image::Image>>
PanoramaRenderCache::resolve(const std::vector<PanoRequest> &requests,
                             int threads)
{
    std::vector<std::shared_ptr<const image::Image>> out(requests.size());

    // Phase A: classify each request in order. claims[c] is the
    // request whose render claim c runs; claimed maps each claimed key
    // to that request.
    std::vector<std::size_t> claims;
    std::unordered_map<PanoKey, std::size_t, PanoKeyHash> claimed;
    {
        support::MutexLock lock(mutex_);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const PanoKey &key = requests[i].key;
            if (const auto it = entries_.find(key); it != entries_.end()) {
                it->second.lastUse = ++useClock_;
                out[i] = it->second.image;
            } else if (claimed.try_emplace(key, i).second) {
                claims.push_back(i);
                ++stats_.misses;
                COTERIE_COUNT("server.pano_cache.miss");
                continue;
            }
            ++stats_.hits;
            COTERIE_COUNT("server.pano_cache.hit");
            tracePanoCounters(stats_.hits, stats_.misses);
        }
    }
    if (claims.empty())
        return out;

    // Phase B: only the renders fan out; a throw skips Phase C.
    auto images = support::parallelMap<image::Image>(
        static_cast<std::int64_t>(claims.size()), 1,
        [&](std::int64_t c) {
            COTERIE_SPAN("server.pano_cache.render", "core");
            return requests[claims[static_cast<std::size_t>(c)]].render();
        },
        threads);

    // Phase C: publish in claim order, so charging, LRU stamps and
    // eviction are pure functions of the batch.
    {
        support::MutexLock lock(mutex_);
        for (std::size_t c = 0; c < claims.size(); ++c) {
            const PanoRequest &req = requests[claims[c]];
            auto image =
                std::make_shared<const image::Image>(std::move(images[c]));
            const std::size_t imageBytes =
                image->pixelCount() * sizeof(image::Rgb);
            const auto [it, fresh] = entries_.try_emplace(req.key);
            if (fresh) {
                Entry &entry = it->second;
                entry.image = std::move(image);
                entry.bytes = imageBytes;
                entry.owner = req.owner;
                bytes_ += imageBytes;
                ownerBytes_[req.owner] += imageBytes;
            }
            it->second.lastUse = ++useClock_;
            out[claims[c]] = it->second.image;
            evictLocked();
            COTERIE_GAUGE_SET("server.pano_cache.bytes", bytes_);
            tracePanoCounters(stats_.hits, stats_.misses);
        }
    }
    // In-batch duplicates share their claim's frame.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!out[i])
            out[i] = out[claimed.at(requests[i].key)];
    }
    return out;
}

void
PanoramaRenderCache::evictLocked()
{
    while (bytes_ > budgetBytes_) {
        // Per-session fairness: pick the victim *owner* first — the
        // one with the largest resident charge (ties break toward the
        // lower owner id for determinism) — then evict that owner's
        // LRU entry. With a single owner this degenerates to the
        // original global LRU policy exactly. bytes_ is the sum of
        // every owner's charge, so an owner with a charge exists.
        std::uint32_t victimOwner = 0;
        std::uint64_t victimCharge = 0;
        for (const auto &[ownerId, charge] : ownerBytes_) {
            if (charge > victimCharge ||
                (charge == victimCharge && ownerId < victimOwner)) {
                victimOwner = ownerId;
                victimCharge = charge;
            }
        }
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.owner != victimOwner)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        COTERIE_ASSERT(victim != entries_.end(),
                       "pano cache over budget with no victim");
        bytes_ -= victim->second.bytes;
        auto charged = ownerBytes_.find(victimOwner);
        charged->second -= victim->second.bytes;
        if (charged->second == 0)
            ownerBytes_.erase(charged);
        ++stats_.evictions;
        stats_.evictedBytes += victim->second.bytes;
        COTERIE_COUNT_N("server.pano_cache.evicted_bytes",
                        victim->second.bytes);
        entries_.erase(victim);
    }
}

std::uint64_t
PanoramaRenderCache::ownerBytes(std::uint32_t owner) const
{
    support::MutexLock lock(mutex_);
    const auto it = ownerBytes_.find(owner);
    return it != ownerBytes_.end() ? it->second : 0;
}

PanoCacheStats
PanoramaRenderCache::stats() const
{
    support::MutexLock lock(mutex_);
    PanoCacheStats out = stats_;
    out.bytes = bytes_;
    out.entries = entries_.size();
    return out;
}

} // namespace coterie::core
