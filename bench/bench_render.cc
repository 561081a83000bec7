/**
 * @file
 * Render hot-path benchmark. Two axes:
 *  - frame A/B: the per-ray reference frame (`Renderer::shadeRay` on
 *    every pixel, with the one-sample-at-a-time terrain march) vs the
 *    packetized row-batched pipeline — the frames are bit-identical,
 *    only the time moves. The reference is the seed renderer's frame
 *    path, so the ratio is recorded as `*_speedup_vs_seed`;
 *  - the coterie-wide far-BE render de-dup scenario (8 clients,
 *    pano-cache hit ratio and renders per frame).
 * Each world also records a per-stage panorama breakdown (direction
 * gen / raycast / terrain / shade / composite) from the pipeline's
 * stage timers.
 *
 * Flags:
 *   --smoke   tiny resolutions / single rep (CI perf-smoke job)
 *   --check   exit non-zero if the batched and reference frames differ,
 *             the batched frames are slower than the reference, or the
 *             8-client scenario's cache counts are not 4 renders and
 *             4 hits
 *   --stages  re-run the stage breakdown with full reps and print a
 *             per-world table
 *
 * Writes results/BENCH_render.json (and ./BENCH_render.json).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/partitioner.hh"
#include "core/server.hh"
#include "obs/metrics.hh"
#include "render/renderer.hh"
#include "support/parallel.hh"
#include "world/gen/generators.hh"

namespace {

using namespace coterie;
using world::gen::GameId;

double
seconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * The per-ray reference frames: `shadeRay` on every pixel's ray, rows
 * fanned over the shared pool like the batched path, with the pixel
 * angle the frame entry points set.
 */
image::Image
referencePanorama(const render::Renderer &renderer, geom::Vec3 eye,
                  int width, int height, render::RenderOptions opts)
{
    opts.pixelAngleRad = M_PI / static_cast<double>(height);
    image::Image frame(width, height);
    support::parallelFor(0, height, 4, [&](std::int64_t b, std::int64_t e) {
        for (auto y = static_cast<int>(b); y < e; ++y) {
            const double v = (y + 0.5) / height;
            for (int x = 0; x < width; ++x) {
                geom::Ray ray;
                ray.origin = eye;
                ray.dir = render::panoramaDirection((x + 0.5) / width, v);
                frame.at(x, y) = renderer.shadeRay(ray, opts);
            }
        }
    });
    return frame;
}

image::Image
referencePerspective(const render::Renderer &renderer,
                     const render::Camera &camera, int width, int height,
                     render::RenderOptions opts)
{
    opts.pixelAngleRad = camera.fovY / static_cast<double>(height);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);
    image::Image frame(width, height);
    support::parallelFor(0, height, 4, [&](std::int64_t b, std::int64_t e) {
        for (auto y = static_cast<int>(b); y < e; ++y) {
            const double sy = 1.0 - 2.0 * (y + 0.5) / height;
            for (int x = 0; x < width; ++x) {
                geom::Ray ray;
                ray.origin = camera.position;
                ray.dir = camera.rayDirection(
                    2.0 * (x + 0.5) / width - 1.0, sy, aspect);
                frame.at(x, y) = renderer.shadeRay(ray, opts);
            }
        }
    });
    return frame;
}

struct AbTimes
{
    double panoMs = 0.0; ///< per panorama frame
    double perspMs = 0.0; ///< per perspective frame
    double panoRaysPerSec = 0.0;
};

/** Time panorama + perspective frames from the world's center, either
 *  through the batched pipeline or as per-ray reference frames. */
AbTimes
timeRenders(const world::VirtualWorld &world, int panoW, int panoH,
            int perspW, int perspH, int reps, bool reference)
{
    const render::Renderer renderer(world);
    const geom::Vec2 center = world.bounds().center();
    const geom::Vec3 eye = world.eyePosition(center);
    render::Camera camera;
    camera.position = eye;
    const render::RenderOptions opts;
    const auto pano = [&](int w, int h) {
        return reference ? referencePanorama(renderer, eye, w, h, opts)
                         : renderer.renderPanorama(eye, w, h, opts);
    };
    const auto persp = [&](int w, int h) {
        return reference
                   ? referencePerspective(renderer, camera, w, h, opts)
                   : renderer.renderPerspective(camera, w, h, opts);
    };

    // Warm the pool, the tree and the terrain once at full size before
    // timing: the first full-size frame after process start runs cold.
    volatile std::uint8_t sink = pano(panoW, panoH).pixels()[0].r;
    (void)sink;

    AbTimes out;
    const double pano_s = seconds([&] {
        for (int i = 0; i < reps; ++i) {
            if (pano(panoW, panoH).empty())
                std::abort(); // keep the optimizer honest
        }
    });
    const double persp_s = seconds([&] {
        for (int i = 0; i < reps; ++i) {
            if (persp(perspW, perspH).empty())
                std::abort();
        }
    });
    out.panoMs = pano_s * 1000.0 / reps;
    out.perspMs = persp_s * 1000.0 / reps;
    out.panoRaysPerSec =
        static_cast<double>(panoW) * panoH * reps / pano_s;
    return out;
}

/** Stage timer metric names, in pipeline order. */
constexpr const char *kStageNames[] = {
    "render.stage.dirs_ms", "render.stage.raycast_ms",
    "render.stage.terrain_ms", "render.stage.shade_ms",
    "render.stage.sky_ms"};
constexpr const char *kStageLabels[] = {"dirs", "raycast", "terrain",
                                        "shade", "composite"};
constexpr int kStageCount = 5;

/**
 * Per-stage panorama cost (ms/frame) via the batched pipeline's stage
 * timers: render @p reps frames with timers on, diff the registry
 * timer sums. The instrumentation is two clock reads per row per
 * stage — well under timing noise at bench resolutions.
 */
void
stageBreakdown(const world::VirtualWorld &world, int panoW, int panoH,
               int reps, double out[kStageCount])
{
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    render::RenderOptions opts;
    opts.stageTimers = true;
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    double before[kStageCount];
    for (int i = 0; i < kStageCount; ++i)
        before[i] = registry.timer(kStageNames[i]).snapshot().stats.sum();
    for (int r = 0; r < reps; ++r) {
        const auto frame = renderer.renderPanorama(eye, panoW, panoH, opts);
        if (frame.empty())
            std::abort();
    }
    for (int i = 0; i < kStageCount; ++i)
        out[i] = (registry.timer(kStageNames[i]).snapshot().stats.sum() -
                  before[i]) /
                 reps;
}

/**
 * The load-bearing equivalence behind the A/B above: the batched
 * packet pipeline and the per-ray reference must produce byte-identical
 * frames (whole scene and both clip layers).
 */
bool
framesAgree(const world::VirtualWorld &world)
{
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    for (int layer = 0; layer < 3; ++layer) {
        render::RenderOptions opts;
        if (layer == 1)
            opts.layer = render::DepthLayer::nearBe(25.0);
        else if (layer == 2)
            opts.layer = render::DepthLayer::farBe(25.0);
        const auto reference =
            referencePanorama(renderer, eye, 96, 48, opts);
        const auto packet = renderer.renderPanorama(eye, 96, 48, opts);
        if (!(reference.pixels() == packet.pixels()))
            return false;
    }
    return true;
}

/**
 * 8-client far-BE scenario: four position pairs, each pair inside one
 * quantization cell, resolved as one pano-cache batch — how many
 * actual renders the cache performs and its hit ratio. The counts are
 * deterministic: 4 renders, 4 hits, hit ratio 0.5.
 */
struct PanoCacheScenario
{
    obs::Json json;
    bool countsMatch = false;
};

PanoCacheScenario
panoCacheScenario(const world::VirtualWorld &world, int width, int height)
{
    const world::GridMap grid =
        world::gen::makeGrid(world::gen::gameInfo(GameId::Viking));
    const auto partition = core::partitionWorld(world, device::pixel2(), {});
    const core::RegionIndex regions(world.bounds(), partition.leaves);
    const core::FrameStore frames(world, grid, regions);

    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    std::vector<geom::Vec2> clients;
    for (int pair = 0; pair < 4; ++pair) {
        const double cx = b.lo.x + (2.0 * pair + 2.25) * pitch;
        const double cy = b.lo.y + 2.25 * pitch;
        clients.push_back({cx, cy});
        clients.push_back({cx + 0.4 * pitch, cy + 0.4 * pitch});
    }

    const double wall_s = seconds(
        [&] { frames.farBePanorama(clients, thresh, width, height); });

    const core::PanoCacheStats stats = frames.panoCacheStats();
    const double served = static_cast<double>(stats.hits + stats.misses);
    const double hitRatio = served > 0.0 ? stats.hits / served : 0.0;
    PanoCacheScenario out;
    out.countsMatch =
        stats.misses == 4 && stats.hits == 4 && hitRatio == 0.5;
    out.json = obs::Json::object();
    out.json.set("clients",
                 obs::Json(static_cast<std::uint64_t>(clients.size())));
    out.json.set("renders", obs::Json(stats.misses));
    out.json.set("hits", obs::Json(stats.hits));
    out.json.set("hit_ratio", obs::Json(hitRatio));
    out.json.set("renders_per_frame",
                 obs::Json(static_cast<double>(stats.misses) /
                           static_cast<double>(clients.size())));
    out.json.set("wall_s", obs::Json(wall_s));
    std::printf("  pano-cache: %zu clients -> %llu renders "
                "(%.0f%% cache-served), %.2f renders/frame\n",
                clients.size(),
                static_cast<unsigned long long>(stats.misses),
                100.0 * hitRatio,
                static_cast<double>(stats.misses) / clients.size());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool check = false;
    bool stages_mode = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--stages") == 0)
            stages_mode = true;
    }

    bench::banner("Render hot path: packet pipeline vs per-ray reference "
                  "+ far-BE de-dup",
                  "the renderer behind Tables 6-8");

    const int pano_w = smoke ? 160 : 512;
    const int pano_h = smoke ? 80 : 256;
    const int persp_w = smoke ? 128 : 320;
    const int persp_h = smoke ? 96 : 240;
    const int reps = smoke ? 1 : 3;

    const struct
    {
        GameId id;
        const char *name;
    } games[] = {{GameId::Racing, "racing"},
                 {GameId::CTS, "cts"},
                 {GameId::Viking, "viking"}};

    obs::Json worlds = obs::Json::object();
    double total_packet_ms = 0.0;
    double total_seed_ms = 0.0;
    bool parity_ok = true;
    for (const auto &game : games) {
        const world::VirtualWorld world =
            world::gen::makeWorld(game.id, 42);
        std::printf("\n  %s (%zu objects)\n", game.name,
                    world.objects().size());

        // The frames are byte-identical across the two (checked below);
        // only time moves.
        const AbTimes seed = timeRenders(world, pano_w, pano_h, persp_w,
                                         persp_h, reps, /*reference=*/true);
        const AbTimes packet =
            timeRenders(world, pano_w, pano_h, persp_w, persp_h, reps,
                        /*reference=*/false);
        const double pano_speedup_vs_seed = seed.panoMs / packet.panoMs;
        double stage_ms[kStageCount];
        stageBreakdown(world, pano_w, pano_h, stages_mode ? reps : 1,
                       stage_ms);
        const bool agree = framesAgree(world);
        parity_ok = parity_ok && agree;

        std::printf("    pano   %7.2f ms (seed)  %7.2f ms (packet)  "
                    "%.2fx vs seed,  rays/s %.2fM\n",
                    seed.panoMs, packet.panoMs, pano_speedup_vs_seed,
                    packet.panoRaysPerSec / 1e6);
        std::printf("    persp  %7.2f ms (seed)  %7.2f ms (packet)  "
                    "%.2fx vs seed\n",
                    seed.perspMs, packet.perspMs,
                    seed.perspMs / packet.perspMs);
        std::printf("    stages ");
        for (int i = 0; i < kStageCount; ++i)
            std::printf(" %s %.1f ms%s", kStageLabels[i], stage_ms[i],
                        i + 1 < kStageCount ? "," : "\n");
        std::printf("    frames: packet %s seed\n",
                    agree ? "==" : "DIFFER FROM");

        obs::Json w = obs::Json::object();
        w.set("objects", obs::Json(static_cast<std::uint64_t>(
                             world.objects().size())));
        w.set("pano_ms_seed", obs::Json(seed.panoMs));
        w.set("pano_ms_packet", obs::Json(packet.panoMs));
        w.set("pano_speedup_vs_seed", obs::Json(pano_speedup_vs_seed));
        w.set("persp_ms_seed", obs::Json(seed.perspMs));
        w.set("persp_ms_packet", obs::Json(packet.perspMs));
        w.set("persp_speedup_vs_seed",
              obs::Json(seed.perspMs / packet.perspMs));
        w.set("pano_rays_per_s_packet", obs::Json(packet.panoRaysPerSec));
        obs::Json stages = obs::Json::object();
        for (int i = 0; i < kStageCount; ++i)
            stages.set(kStageLabels[i], obs::Json(stage_ms[i]));
        w.set("pano_stage_ms", std::move(stages));
        w.set("packet_matches_seed", obs::Json(agree));
        worlds.set(game.name, std::move(w));
        total_packet_ms += packet.panoMs;
        total_seed_ms += seed.panoMs;
    }

    std::printf("\n  8-client far-BE de-dup (viking)\n");
    world::VirtualWorld viking = world::gen::makeWorld(GameId::Viking, 42);
    PanoCacheScenario cache = panoCacheScenario(viking, smoke ? 64 : 192,
                                                smoke ? 32 : 96);

    obs::Json doc = obs::Json::object();
    doc.set("smoke", obs::Json(smoke));
    doc.set("pano_w", obs::Json(static_cast<std::uint64_t>(pano_w)));
    doc.set("pano_h", obs::Json(static_cast<std::uint64_t>(pano_h)));
    doc.set("reps", obs::Json(static_cast<std::uint64_t>(reps)));
    doc.set("worlds", std::move(worlds));
    doc.set("pano_cache", std::move(cache.json));
    doc.set("total_pano_ms_seed", obs::Json(total_seed_ms));
    doc.set("total_pano_ms_packet", obs::Json(total_packet_ms));
    doc.set("total_pano_speedup_vs_seed",
            obs::Json(total_seed_ms / total_packet_ms));
    doc.set("packet_matches_seed", obs::Json(parity_ok));
    bench::writeBenchJson("render", doc);

    std::printf("\n  total pano: %.2f ms (seed) vs %.2f ms (packet) "
                "-> %.2fx frame\n",
                total_seed_ms, total_packet_ms,
                total_seed_ms / total_packet_ms);

    if (check) {
        // The parity check is deterministic — a solid CI signal. Frame
        // times run on the pool, so allow 10% noise.
        if (!parity_ok) {
            std::printf("  CHECK FAILED: packet pipeline frames differ "
                        "from the per-ray reference\n");
            return 1;
        }
        if (total_packet_ms > 1.10 * total_seed_ms) {
            std::printf("  CHECK FAILED: packet pipeline slower than "
                        "the per-ray reference\n");
            return 1;
        }
        if (!cache.countsMatch) {
            std::printf("  CHECK FAILED: the 8-client pano-cache batch "
                        "must cost 4 renders and 4 hits (hit ratio "
                        "0.5)\n");
            return 1;
        }
    }
    return 0;
}
