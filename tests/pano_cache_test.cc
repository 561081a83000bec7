/**
 * @file
 * Panorama render cache: the one `resolve` protocol (serial lookup,
 * pooled renders, serial publish) — hit/miss accounting, in-batch
 * de-dup, LRU stamps, owner charging and eviction under a byte budget,
 * failed renders — and end-to-end transparency through FrameStore (a
 * cached far-BE panorama is the exact frame the renderer produces).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/pano_cache.hh"
#include "core/server.hh"
#include "support/parallel.hh"
#include "world/gen/generators.hh"

namespace coterie::core {
namespace {

using geom::Vec2;
using image::Image;
using world::gen::GameId;

PanoKey
testKey(std::int64_t qx, std::int64_t qy)
{
    PanoKey key;
    key.worldTag = 0x7e57;
    key.qx = qx;
    key.qy = qy;
    key.width = 4;
    key.height = 4;
    return key;
}

Image
solidImage(int w, int h, std::uint8_t v)
{
    Image img(w, h);
    for (auto &px : img.pixels())
        px = {v, v, v};
    return img;
}

/** A 4x4 (48-byte) request whose render bumps @p renders. */
PanoRequest
countedRequest(PanoKey key, std::atomic<int> &renders,
               std::uint32_t owner = 0, std::uint8_t value = 2)
{
    return {key, owner, [&renders, value] {
                ++renders;
                return solidImage(4, 4, value);
            }};
}

TEST(PanoCache, HitMissAndStats)
{
    PanoramaRenderCache cache(1 << 20);
    std::atomic<int> renders{0};

    const auto a1 = cache.resolve({countedRequest(testKey(0, 0), renders)});
    const auto a2 = cache.resolve({countedRequest(testKey(0, 0), renders)});
    ASSERT_EQ(a1.size(), 1u);
    EXPECT_EQ(a1[0].get(), a2[0].get()); // literally the same frame
    EXPECT_EQ(renders.load(), 1);

    cache.resolve({countedRequest(testKey(1, 0), renders)});
    EXPECT_EQ(renders.load(), 2);

    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.inflightJoins, 0u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 2u * 4 * 4 * 3);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_TRUE(cache.resolve({}).empty());
}

TEST(PanoCache, InBatchDuplicateRendersOnce)
{
    // The second request for a key claimed earlier in the same batch
    // is a hit served by that one render, charged to the first owner.
    PanoramaRenderCache cache(1 << 20);
    std::atomic<int> renders{0};
    const auto out = cache.resolve(
        {countedRequest(testKey(7, 7), renders, /*owner=*/1, 3),
         countedRequest(testKey(7, 7), renders, /*owner=*/2, 3)});
    EXPECT_EQ(renders.load(), 1);
    ASSERT_EQ(out.size(), 2u);
    ASSERT_TRUE(out[0]);
    EXPECT_EQ(out[0].get(), out[1].get());
    EXPECT_EQ(out[0]->pixels()[0].r, 3);

    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(cache.ownerBytes(1), 48u);
    EXPECT_EQ(cache.ownerBytes(2), 0u);
}

TEST(PanoCache, LruEvictionUnderByteBudget)
{
    // Budget fits exactly two 4x4 frames (48 bytes each).
    PanoramaRenderCache cache(96);
    std::atomic<int> renders{0};
    const auto one = [&](std::int64_t qx) {
        cache.resolve({countedRequest(testKey(qx, 0), renders)});
    };
    one(0); // A
    one(1); // B
    one(0); // touch A (hit)
    one(2); // C -> evicts LRU = B
    EXPECT_EQ(renders.load(), 3);

    PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.evictedBytes, 48u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes, 96u);

    one(0); // A still resident
    EXPECT_EQ(renders.load(), 3);
    one(1); // B was evicted
    EXPECT_EQ(renders.load(), 4);
}

TEST(PanoCache, ResidentHitStampsBeforeTheBatchPublishes)
{
    // A is older than B. One batch hits A and renders C: A's stamp
    // lands in the lookup phase, before C's publish evicts, so the
    // victim is B — not A, which the batch just used.
    PanoramaRenderCache cache(96);
    std::atomic<int> renders{0};
    cache.resolve({countedRequest(testKey(0, 0), renders)}); // A
    cache.resolve({countedRequest(testKey(1, 0), renders)}); // B
    const auto out =
        cache.resolve({countedRequest(testKey(0, 0), renders),  // A hit
                       countedRequest(testKey(2, 0), renders)}); // C
    EXPECT_EQ(renders.load(), 3);
    ASSERT_TRUE(out[0] && out[1]);
    EXPECT_EQ(cache.stats().evictions, 1u);

    cache.resolve({countedRequest(testKey(0, 0), renders)}); // A resident
    EXPECT_EQ(renders.load(), 3);
    cache.resolve({countedRequest(testKey(1, 0), renders)}); // B evicted
    EXPECT_EQ(renders.load(), 4);
}

TEST(PanoCache, FailedRenderReleasesClaim)
{
    // A throwing render publishes nothing from its batch (the claims
    // die with the call) and rethrows; the next batch renders the key.
    PanoramaRenderCache cache(1 << 20);
    std::atomic<int> renders{0};
    const std::vector<PanoRequest> failing{
        countedRequest(testKey(1, 1), renders),
        {testKey(9, 9), 0, []() -> Image { throw std::runtime_error("gpu"); }},
    };
    EXPECT_THROW(cache.resolve(failing, /*threads=*/1), std::runtime_error);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.ownerBytes(0), 0u);

    const auto img =
        cache.resolve({countedRequest(testKey(9, 9), renders, 0, 8)});
    EXPECT_EQ(renders.load(), 2); // (1,1) in the failed batch, then (9,9)
    EXPECT_EQ(img[0]->pixels()[0].g, 8);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PanoCache, WorldTagsNeverCollide)
{
    // Identical quantized coordinates and dimensions under different
    // world tags are different panoramas — a fleet sharing one cache
    // across worlds must never serve one world's sky to another.
    PanoramaRenderCache cache(1 << 20);
    std::atomic<int> renders{0};
    PanoKey viking = testKey(3, 3);
    PanoKey fps = testKey(3, 3);
    fps.worldTag = 0x0f95;
    cache.resolve({countedRequest(viking, renders),
                   countedRequest(fps, renders)});
    EXPECT_EQ(renders.load(), 2);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PanoCache, CrossOwnerHitsLeaveChargeWithRenderer)
{
    // The owner is charged when its render publishes, not when it
    // claims; sibling sessions then hit the entry for free and the
    // session that caused the render keeps the residency charge.
    PanoramaRenderCache cache(1 << 20);
    std::uint64_t chargedDuringRender = ~0ull;
    cache.resolve({{testKey(0, 0), /*owner=*/1, [&] {
                        // Renders run outside the lock.
                        chargedDuringRender = cache.ownerBytes(1);
                        return solidImage(4, 4, 1);
                    }}});
    EXPECT_EQ(chargedDuringRender, 0u);
    EXPECT_EQ(cache.ownerBytes(1), 48u);

    std::atomic<int> renders{0};
    cache.resolve({countedRequest(testKey(0, 0), renders, /*owner=*/2)});
    EXPECT_EQ(renders.load(), 0);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.ownerBytes(1), 48u);
    EXPECT_EQ(cache.ownerBytes(2), 0u);
}

TEST(PanoCache, EvictionChargesHeaviestOwnerFirst)
{
    // Budget fits two 4x4 frames. Session 1 renders two panoramas;
    // session 2's first render then forces an eviction — the victim
    // comes from the heaviest-charged owner (session 1, LRU within),
    // not from the newcomer, so one hot session cannot starve a
    // sibling's working set.
    PanoramaRenderCache cache(96);
    std::atomic<int> renders{0};
    const auto one = [&](std::int64_t qx, std::uint32_t owner) {
        cache.resolve({countedRequest(testKey(qx, 0), renders, owner)});
    };
    one(0, 1); // A
    one(1, 1); // B
    one(2, 2); // C evicts A
    EXPECT_EQ(renders.load(), 3);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.ownerBytes(1), 48u);
    EXPECT_EQ(cache.ownerBytes(2), 48u);

    one(1, 1); // B resident
    one(2, 2); // C resident
    EXPECT_EQ(renders.load(), 3);
    one(0, 1); // A was evicted
    EXPECT_EQ(renders.load(), 4);
}

TEST(PanoCache, EvictionInsideABatchPicksHeaviestOwnersLru)
{
    // Budget fits three frames. One batch publishes A, B, C for
    // session 1 (at budget) then D for session 2: D's publish evicts
    // session 1's least recently published entry, A.
    PanoramaRenderCache cache(144);
    std::atomic<int> renders{0};
    const auto out = cache.resolve({countedRequest(testKey(0, 0), renders, 1),
                                    countedRequest(testKey(1, 0), renders, 1),
                                    countedRequest(testKey(2, 0), renders, 1),
                                    countedRequest(testKey(3, 0), renders, 2)});
    EXPECT_EQ(renders.load(), 4);
    for (const auto &img : out)
        EXPECT_TRUE(img); // the caller keeps even the evicted frame
    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(cache.ownerBytes(1), 96u);
    EXPECT_EQ(cache.ownerBytes(2), 48u);

    cache.resolve({countedRequest(testKey(1, 0), renders, 1),   // B
                   countedRequest(testKey(2, 0), renders, 1),   // C
                   countedRequest(testKey(3, 0), renders, 2)}); // D
    EXPECT_EQ(renders.load(), 4);
    cache.resolve({countedRequest(testKey(0, 0), renders, 1)}); // A
    EXPECT_EQ(renders.load(), 5);
}

TEST(PanoCache, ConcurrentBatchesKeepOneEntryPerKey)
{
    // Two batches over the same keys at once: each key ends up with
    // exactly one resident entry and one charge, whichever publishes
    // first, and every request gets its frame.
    constexpr int kKeys = 8;
    PanoramaRenderCache cache(1 << 20);
    std::atomic<int> renders{0};
    std::vector<PanoRequest> batch;
    for (int k = 0; k < kKeys; ++k)
        batch.push_back(countedRequest(testKey(k, 0), renders, 1, 5));
    support::parallelFor(
        0, 2, 1,
        [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                for (const auto &img : cache.resolve(batch)) {
                    ASSERT_TRUE(img);
                    EXPECT_EQ(img->pixels()[0].b, 5);
                }
            }
        },
        2);
    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, static_cast<std::uint64_t>(kKeys));
    EXPECT_EQ(stats.bytes, kKeys * 48u);
    EXPECT_EQ(cache.ownerBytes(1), stats.bytes);
    EXPECT_EQ(stats.hits + stats.misses, 2u * kKeys);
    EXPECT_EQ(static_cast<std::uint64_t>(renders.load()), stats.misses);
}

/** FrameStore integration over a real world + partition. */
struct PanoCacheFixture : testing::Test
{
    PanoCacheFixture()
        : world(world::gen::makeWorld(GameId::Viking, 42)),
          grid(world::gen::makeGrid(
              world::gen::gameInfo(GameId::Viking))),
          partition(partitionWorld(world, device::pixel2(), {})),
          regions(world.bounds(), partition.leaves),
          frames(world, grid, regions)
    {
    }

    /** One position in each of @p n cells along a row. */
    std::vector<Vec2>
    distinctCells(int n, double thresh) const
    {
        const double pitch = std::max(thresh, grid.spacing());
        const geom::Rect &b = world.bounds();
        std::vector<Vec2> out;
        for (int i = 0; i < n; ++i)
            out.push_back({b.lo.x + (2.0 * i + 2.4) * pitch,
                           b.lo.y + 3.6 * pitch});
        return out;
    }

    world::VirtualWorld world;
    world::GridMap grid;
    PartitionResult partition;
    RegionIndex regions;
    FrameStore frames;
};

TEST_F(PanoCacheFixture, SameCellSharesOneRender)
{
    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    // Two distinct positions inside the same quantization cell, and a
    // third in the neighboring cell.
    const Vec2 p1{b.lo.x + 2.25 * pitch, b.lo.y + 2.25 * pitch};
    const Vec2 p2{b.lo.x + 2.75 * pitch, b.lo.y + 2.75 * pitch};
    const Vec2 p3{b.lo.x + 3.25 * pitch, b.lo.y + 2.25 * pitch};

    const auto f = frames.farBePanorama({p1, p2, p3}, thresh, 48, 24);
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0].get(), f[1].get()); // shared cached frame
    EXPECT_NE(f[0].get(), f[2].get());

    const PanoCacheStats stats = frames.panoCacheStats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST_F(PanoCacheFixture, CachedPanoramaMatchesDirectRender)
{
    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    const Vec2 pos{b.lo.x + 5.6 * pitch, b.lo.y + 4.4 * pitch};
    std::vector<Vec2> positions = distinctCells(3, thresh);
    positions.push_back(pos);
    const auto cached = frames.farBePanorama(positions, thresh, 48, 24);

    // Every served frame is byte-equal to the store's own uncached
    // render of the same lookup.
    for (std::size_t i = 0; i < positions.size(); ++i) {
        const Image direct = frames.renderFarBe(
            frames.farBeLookup(positions[i], thresh, 48, 24));
        EXPECT_TRUE(cached[i]->pixels() == direct.pixels()) << i;
    }

    // Reconstruct the cell-representative render the cache performs.
    const auto qx = static_cast<std::int64_t>(
        std::floor((pos.x - b.lo.x) / pitch));
    const auto qy = static_cast<std::int64_t>(
        std::floor((pos.y - b.lo.y) / pitch));
    const Vec2 rep{
        std::clamp(b.lo.x + (qx + 0.5) * pitch, b.lo.x, b.hi.x),
        std::clamp(b.lo.y + (qy + 0.5) * pitch, b.lo.y, b.hi.y)};
    const render::Renderer renderer(world);
    render::RenderOptions opts;
    opts.layer = render::DepthLayer::farBe(regions.cutoffAt(rep));
    const Image direct =
        renderer.renderPanorama(world.eyePosition(rep), 48, 24, opts);
    EXPECT_TRUE(cached.back()->pixels() == direct.pixels());
}

TEST_F(PanoCacheFixture, SecondBatchIsAllHits)
{
    const std::vector<Vec2> positions = distinctCells(6, 8.0);
    const auto first = frames.farBePanorama(positions, 8.0, 32, 16);
    const PanoCacheStats afterFirst = frames.panoCacheStats();
    EXPECT_EQ(afterFirst.misses, positions.size());
    EXPECT_EQ(afterFirst.hits, 0u);

    const auto second = frames.farBePanorama(positions, 8.0, 32, 16);
    const PanoCacheStats afterSecond = frames.panoCacheStats();
    // Every second-batch frame came out of the cache.
    EXPECT_EQ(afterSecond.misses, afterFirst.misses);
    EXPECT_EQ(afterSecond.hits, positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        EXPECT_EQ(first[i].get(), second[i].get());
}

TEST_F(PanoCacheFixture, EightClientsRenderOncePerDistinctCell)
{
    // Four position pairs, each pair within one quantization cell, in
    // one batch: eight clients cost exactly four renders, and the
    // second client of each pair is a hit.
    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    std::vector<Vec2> clients;
    for (int pair = 0; pair < 4; ++pair) {
        const double cx = b.lo.x + (2.0 * pair + 2.25) * pitch;
        const double cy = b.lo.y + 2.25 * pitch;
        clients.push_back({cx, cy});
        clients.push_back({cx + 0.4 * pitch, cy + 0.4 * pitch});
    }
    const auto out = frames.farBePanorama(clients, thresh, 32, 16);
    for (std::size_t pair = 0; pair < 4; ++pair)
        EXPECT_EQ(out[2 * pair].get(), out[2 * pair + 1].get());
    const PanoCacheStats stats = frames.panoCacheStats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.inflightJoins, 0u);
}

TEST_F(PanoCacheFixture, SerialAndPooledRendersAreBitIdentical)
{
    // Two independent stores so both actually render: one batch
    // serial, one fanned out on the pool. The frames must match bit
    // for bit (the determinism invariant the cache relies on to share
    // frames across clients).
    FrameStore serial(world, grid, regions);
    const std::vector<Vec2> positions = distinctCells(4, 8.0);
    const auto pooled = frames.farBePanorama(positions, 8.0, 64, 32, 0);
    const auto single = serial.farBePanorama(positions, 8.0, 64, 32, 1);
    for (std::size_t i = 0; i < positions.size(); ++i)
        EXPECT_TRUE(pooled[i]->pixels() == single[i]->pixels()) << i;
}

TEST_F(PanoCacheFixture, SameWorldStoresShareOneCacheAcrossSessions)
{
    // The fleet deployment shape: two sessions (FrameStores) over the
    // same world wired to one externally owned cache. Session 2's
    // first render of any cell session 1 already produced is a hit —
    // and the residency charge stays with session 1.
    const auto shared = std::make_shared<PanoramaRenderCache>(64ull << 20);
    FrameStoreParams params;
    params.sharedPanoCache = shared;
    FrameStore store1(world, grid, regions, params);
    FrameStore store2(world, grid, regions, params);
    ASSERT_EQ(store1.worldTag(), store2.worldTag());
    ASSERT_EQ(&store1.panoCache(), shared.get());

    const Vec2 pos = world.bounds().center();
    const auto first =
        store1.farBePanorama({pos}, 8.0, 48, 24, 1, /*cacheOwner=*/1);
    const auto second =
        store2.farBePanorama({pos}, 8.0, 48, 24, 1, /*cacheOwner=*/2);
    EXPECT_EQ(first[0].get(), second[0].get()); // the same frame
    const PanoCacheStats stats = shared->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(shared->ownerBytes(1), stats.bytes);
    EXPECT_EQ(shared->ownerBytes(2), 0u);
}

TEST_F(PanoCacheFixture, DifferentWorldsNeverShareRenders)
{
    // Two sessions over *different* worlds on one shared cache: the
    // world tag in every key keeps their panoramas apart even at
    // identical positions and resolutions.
    const auto shared = std::make_shared<PanoramaRenderCache>(64ull << 20);
    FrameStoreParams params;
    params.sharedPanoCache = shared;
    FrameStore viking(world, grid, regions, params);

    world::VirtualWorld other = world::gen::makeWorld(GameId::FPS, 42);
    world::GridMap otherGrid =
        world::gen::makeGrid(world::gen::gameInfo(GameId::FPS));
    PartitionResult otherPartition =
        partitionWorld(other, device::pixel2(), {});
    RegionIndex otherRegions(other.bounds(), otherPartition.leaves);
    FrameStore fps(other, otherGrid, otherRegions, params);
    ASSERT_NE(viking.worldTag(), fps.worldTag());

    const Vec2 pos = world.bounds().center();
    viking.farBePanorama({pos}, 8.0, 48, 24, 1, 1);
    fps.farBePanorama({pos}, 8.0, 48, 24, 1, 2);
    const PanoCacheStats stats = shared->stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 2u);
}

} // namespace
} // namespace coterie::core
