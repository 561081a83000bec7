/**
 * @file
 * Tests for the software renderer: sky/terrain/object shading, the
 * near/far depth-layer decomposition invariant (near merged over far
 * equals the whole frame), chroma-key transparency, panorama cropping,
 * texture determinism, and the batched frame pipeline pinned to both
 * a per-ray reference frame and recorded golden pixel digests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "render/renderer.hh"
#include "world/gen/generators.hh"

namespace coterie::render {
namespace {

using geom::Vec2;
using geom::Vec3;
using image::Image;
using image::Rgb;
using world::SceneType;
using world::TerrainParams;
using world::VirtualWorld;
using world::WorldObject;

VirtualWorld
tinyWorld()
{
    TerrainParams terrain;
    terrain.flat = true;
    VirtualWorld world("tiny", {{0, 0}, {60, 60}}, terrain);
    WorldObject near_box;
    near_box.shape = world::Shape::Box;
    near_box.position = {33, 1.0, 30};
    near_box.dims = {2, 2, 2};
    near_box.color = {200, 40, 40};
    world.addObject(near_box);
    WorldObject far_box;
    far_box.shape = world::Shape::Box;
    far_box.position = {50, 2.0, 30};
    far_box.dims = {4, 4, 4};
    far_box.color = {40, 40, 200};
    world.addObject(far_box);
    world.finalize();
    return world;
}

TEST(Renderer, SkyAboveHorizonOutdoors)
{
    const VirtualWorld world = tinyWorld();
    const Renderer renderer(world);
    geom::Ray up;
    up.origin = world.eyePosition({30, 30});
    up.dir = {0.0, 1.0, 0.0};
    RenderOptions opts;
    opts.texture = false;
    const Rgb sky = renderer.shadeRay(up, opts);
    EXPECT_EQ(sky, world.skyColor(M_PI / 2));
}

TEST(Renderer, GroundBelowFeet)
{
    const VirtualWorld world = tinyWorld();
    const Renderer renderer(world);
    geom::Ray down;
    down.origin = world.eyePosition({10, 10});
    down.dir = {0.0, -1.0, 0.0};
    RenderOptions opts;
    opts.texture = false;
    opts.shading = false;
    const Rgb ground = renderer.shadeRay(down, opts);
    EXPECT_EQ(ground, world.terrain().colorAt({10, 10}));
}

TEST(Renderer, ObjectOccludesSkyAndGetsItsColor)
{
    const VirtualWorld world = tinyWorld();
    const Renderer renderer(world);
    geom::Ray toward;
    toward.origin = {30.0, 1.0, 30.0};
    toward.dir = Vec3{1.0, 0.0, 0.0}; // toward the red box at x=33
    RenderOptions opts;
    opts.texture = false;
    opts.shading = false;
    EXPECT_EQ(renderer.shadeRay(toward, opts), (Rgb{200, 40, 40}));
}

TEST(Renderer, NearLayerClipsFarContentToChromaKey)
{
    const VirtualWorld world = tinyWorld();
    const Renderer renderer(world);
    geom::Ray toward;
    toward.origin = {30.0, 2.0, 30.0};
    toward.dir = Vec3{1.0, 0.05, 0.0}.normalized(); // slightly upward
    RenderOptions near_opts;
    near_opts.layer = DepthLayer::nearBe(1.5); // red box at 2m excluded
    near_opts.texture = false;
    EXPECT_EQ(renderer.shadeRay(toward, near_opts), near_opts.clipKey);
}

TEST(Renderer, FarLayerSkipsNearContent)
{
    const VirtualWorld world = tinyWorld();
    const Renderer renderer(world);
    geom::Ray toward;
    toward.origin = {30.0, 2.0, 30.0};
    toward.dir = Vec3{1.0, 0.0, 0.0};
    RenderOptions far_opts;
    far_opts.layer = DepthLayer::farBe(10.0); // past the red box (3m)
    far_opts.texture = false;
    far_opts.shading = false;
    // The ray now sees the blue box at 20m instead of the red at 3m.
    EXPECT_EQ(renderer.shadeRay(toward, far_opts), (Rgb{40, 40, 200}));
}

TEST(Renderer, MergeOfNearAndFarEqualsWholeFrame)
{
    // The core split-rendering invariant: render near BE and far BE
    // separately at the same cutoff and merge; the result must equal
    // the whole-scene render (modulo nothing — same rays, same
    // shading).
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    const double cutoff = 4.0;

    RenderOptions whole;
    const Image full = renderer.renderPanorama(eye, 96, 48, whole);
    RenderOptions near_opts;
    near_opts.layer = DepthLayer::nearBe(cutoff);
    const Image near_img = renderer.renderPanorama(eye, 96, 48, near_opts);
    RenderOptions far_opts;
    far_opts.layer = DepthLayer::farBe(cutoff);
    const Image far_img = renderer.renderPanorama(eye, 96, 48, far_opts);

    const Image merged = Renderer::merge(near_img, far_img);
    // Allow a tiny number of boundary pixels to differ (points exactly
    // at the cutoff).
    int mismatches = 0;
    for (int y = 0; y < full.height(); ++y)
        for (int x = 0; x < full.width(); ++x)
            mismatches += !(merged.at(x, y) == full.at(x, y));
    EXPECT_LE(mismatches, full.width() * full.height() / 100);
}

TEST(Renderer, PanoramaDirectionRoundTrip)
{
    for (double u : {0.1, 0.4, 0.7, 0.95}) {
        for (double v : {0.1, 0.5, 0.9}) {
            const Vec3 dir = panoramaDirection(u, v);
            EXPECT_NEAR(dir.length(), 1.0, 1e-12);
            double u2, v2;
            directionToPanoramaUv(dir, u2, v2);
            EXPECT_NEAR(u2, u, 1e-9);
            EXPECT_NEAR(v2, v, 1e-9);
        }
    }
}

TEST(Renderer, CropPanoramaMatchesPerspectiveApproximately)
{
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    RenderOptions opts;
    const Image pano = renderer.renderPanorama(eye, 512, 256, opts);

    Camera cam;
    cam.position = eye;
    cam.yaw = 0.7;
    const Image direct = renderer.renderPerspective(cam, 64, 64, opts);
    const Image cropped = cropPanoramaToView(pano, cam, 64, 64);
    // Nearest-texel resampling: expect agreement, not equality.
    EXPECT_LT(direct.meanAbsDiff(cropped), 40.0);
}

TEST(Renderer, DeterministicAcrossThreadCounts)
{
    const VirtualWorld world = tinyWorld();
    const Renderer renderer(world);
    RenderOptions serial;
    serial.threads = 1;
    RenderOptions parallel;
    parallel.threads = 4;
    const Vec3 eye = world.eyePosition({30, 30});
    EXPECT_EQ(renderer.renderPanorama(eye, 64, 32, serial),
              renderer.renderPanorama(eye, 64, 32, parallel));
}

/** FNV-1a over a frame's RGB bytes (the golden-digest currency). */
std::uint64_t
frameDigest(const Image &frame)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const Rgb &p : frame.pixels()) {
        for (const std::uint8_t c : {p.r, p.g, p.b}) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/**
 * The per-ray reference frames: `shadeRay` on every pixel's ray, with
 * the pixel angle the frame entry points set. This is the renderer's
 * pre-batching frame, built here from the public projection helpers so
 * the batched pipeline is pinned against an independent loop.
 */
Image
referencePanorama(const Renderer &renderer, Vec3 eye, int width,
                  int height, RenderOptions opts)
{
    opts.pixelAngleRad = M_PI / static_cast<double>(height);
    Image frame(width, height);
    for (int y = 0; y < height; ++y) {
        const double v = (y + 0.5) / height;
        for (int x = 0; x < width; ++x) {
            geom::Ray ray;
            ray.origin = eye;
            ray.dir = panoramaDirection((x + 0.5) / width, v);
            frame.at(x, y) = renderer.shadeRay(ray, opts);
        }
    }
    return frame;
}

Image
referencePerspective(const Renderer &renderer, const Camera &camera,
                     int width, int height, RenderOptions opts)
{
    opts.pixelAngleRad = camera.fovY / static_cast<double>(height);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);
    Image frame(width, height);
    for (int y = 0; y < height; ++y) {
        const double sy = 1.0 - 2.0 * (y + 0.5) / height;
        for (int x = 0; x < width; ++x) {
            geom::Ray ray;
            ray.origin = camera.position;
            ray.dir = camera.rayDirection(2.0 * (x + 0.5) / width - 1.0,
                                          sy, aspect);
            frame.at(x, y) = renderer.shadeRay(ray, opts);
        }
    }
    return frame;
}

/** Batched-frame digests recorded from the byte-identical per-ray
 *  reference, one row per (world, depth layer). */
struct FrameGolden
{
    world::gen::GameId game;
    const char *layer; ///< "whole", "near" or "far" (cutoff 25 m)
    std::uint64_t pano;
    std::uint64_t persp;
};

constexpr FrameGolden kFrameGoldens[] = {
    {world::gen::GameId::Racing, "whole", 0xe12f9702ac8ecd6eull,
     0x503e6f4906169328ull},
    {world::gen::GameId::CTS, "whole", 0x6ba5558d5e36f47dull,
     0xfa2895ccb3dca759ull},
    {world::gen::GameId::Viking, "whole", 0x3d174988cde5498cull,
     0x7dfc074b576158d5ull},
    {world::gen::GameId::Racing, "near", 0x53aea63a704107a7ull,
     0x2e19680480f300eaull},
    {world::gen::GameId::CTS, "near", 0x35ba6b4e8169f1ddull,
     0x9dcd04f6f956568eull},
    {world::gen::GameId::Viking, "near", 0x3d174988cde5498cull,
     0x7dfc074b576158d5ull},
    {world::gen::GameId::Racing, "far", 0x9dc15b8c7ed7e985ull,
     0x2f8a92c2bcb09aeeull},
    {world::gen::GameId::CTS, "far", 0x5aaa3a0618cdd36cull,
     0x4f7ed69abf16f09bull},
    {world::gen::GameId::Viking, "far", 0xd055825d20fe5623ull,
     0x9459535a9f7b37f4ull},
};

/**
 * Render one (world, layer) view through the batched pipeline and
 * require (1) byte equality with the per-ray reference and (2) the
 * recorded golden digest. The 64x32 panorama deliberately includes the
 * poles (first and last rows, where the row basis degenerates toward
 * sp=+-1) and the yaw seam (first and last columns).
 */
void
expectBatchedMatchesReference(const FrameGolden &golden)
{
    const world::VirtualWorld world = world::gen::makeWorld(golden.game, 42);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition(world.bounds().center());
    const std::string tag = world.name() + "/" + golden.layer;
    RenderOptions opts;
    if (std::string(golden.layer) == "near")
        opts.layer = DepthLayer::nearBe(25.0);
    else if (std::string(golden.layer) == "far")
        opts.layer = DepthLayer::farBe(25.0);

    const Image pano = renderer.renderPanorama(eye, 64, 32, opts);
    EXPECT_EQ(pano, referencePanorama(renderer, eye, 64, 32, opts))
        << tag << ": batched pano != per-ray reference";
    EXPECT_EQ(frameDigest(pano), golden.pano)
        << tag << ": pano digest 0x" << std::hex << frameDigest(pano);

    Camera cam;
    cam.position = eye;
    cam.yaw = 0.7;
    cam.pitch = -0.2;
    const Image persp = renderer.renderPerspective(cam, 40, 30, opts);
    EXPECT_EQ(persp, referencePerspective(renderer, cam, 40, 30, opts))
        << tag << ": batched persp != per-ray reference";
    EXPECT_EQ(frameDigest(persp), golden.persp)
        << tag << ": persp digest 0x" << std::hex << frameDigest(persp);
}

TEST(Renderer, BatchedMatchesReferenceAcrossWorlds)
{
    for (const FrameGolden &golden : kFrameGoldens)
        if (std::string(golden.layer) == "whole")
            expectBatchedMatchesReference(golden);
}

TEST(Renderer, BatchedMatchesReferenceOnDepthLayers)
{
    // The near layer exercises the clip-key path (finite farClip) and
    // the far layer the shifted tMin window, including which pixels
    // collapse to the chroma key.
    for (const FrameGolden &golden : kFrameGoldens)
        if (std::string(golden.layer) != "whole")
            expectBatchedMatchesReference(golden);
}

TEST(Renderer, BatchedPathDeterministicAcrossThreadCounts)
{
    // Chunked row batching must not leak scheduling into pixels: a
    // textured, object-dense world renders identical frames at 1 and 4
    // threads (DeterministicAcrossThreadCounts covers the tiny world).
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    RenderOptions serial;
    serial.threads = 1;
    RenderOptions parallel;
    parallel.threads = 4;
    EXPECT_EQ(renderer.renderPanorama(eye, 64, 32, serial),
              renderer.renderPanorama(eye, 64, 32, parallel));
}

TEST(Renderer, TextureAddsHighFrequencyDetail)
{
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    RenderOptions with;
    RenderOptions without;
    without.texture = false;
    const Image tex = renderer.renderPanorama(eye, 96, 48, with);
    const Image flat = renderer.renderPanorama(eye, 96, 48, without);
    // Textured frames differ from flat ones and are reproducible.
    EXPECT_GT(tex.meanAbsDiff(flat), 2.0);
    EXPECT_EQ(tex, renderer.renderPanorama(eye, 96, 48, with));
}

TEST(RendererDeath, MergeSizeMismatchPanics)
{
    const Image a(4, 4), b(5, 4);
    EXPECT_DEATH(Renderer::merge(a, b), "mismatch");
}

} // namespace
} // namespace coterie::render
