#include "render/renderer.hh"

#include <algorithm>
#include <cmath>

#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "render/pipeline.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "world/bvh.hh"

namespace coterie::render {

using geom::Hit;
using geom::Ray;
using geom::Vec2;
using geom::Vec3;
using image::Image;
using image::Rgb;

namespace {

/**
 * Run @p fn(begin, end) over row chunks of [0, rows) via the shared
 * thread pool. Rows write disjoint pixels, so any chunking is
 * deterministic. A small fixed grain keeps the BVH-heavy rows
 * load-balanced.
 */
template <typename ChunkFn>
void
parallelRowChunks(int rows, int threads, ChunkFn &&fn)
{
    support::parallelFor(
        0, rows, 4,
        [&](std::int64_t b, std::int64_t e) {
            COTERIE_SPAN("render.rows", "render");
            COTERIE_COUNT_N("render.rows", e - b);
            // Attribute BVH traversal work to rendering: discard any
            // counts a previous (non-render) caller left on this
            // thread, then drain what this chunk's rays accumulated.
            // One registry add per chunk — nothing per ray.
            world::Bvh::takeThreadStats();
            fn(static_cast<int>(b), static_cast<int>(e));
            const world::Bvh::TraversalStats stats =
                world::Bvh::takeThreadStats();
            COTERIE_COUNT_N("bvh.nodes_visited", stats.nodesVisited);
            COTERIE_COUNT_N("bvh.leaf_tests", stats.leafTests);
        },
        threads);
}

/** Run @p fn(row) for every row of [0, rows) via parallelRowChunks. */
template <typename Fn>
void
parallelRows(int rows, int threads, Fn &&fn)
{
    parallelRowChunks(rows, threads, [&](int b, int e) {
        for (int y = b; y < e; ++y)
            fn(y);
    });
}

/**
 * The frame body shared by renderPanorama and renderPerspective: row
 * chunks through the staged pipeline with per-chunk scratch buffers.
 * @p dirFn runs stage 1 (projection-specific direction generation) for
 * a row.
 */
template <typename DirFn>
void
batchedFrame(const world::VirtualWorld &world, Vec3 origin,
             const RenderOptions &opts, int width, int height,
             Image &frame, DirFn &&dirFn)
{
    parallelRowChunks(height, opts.threads, [&](int b, int e) {
        detail::RowBuffers rows;
        rows.resize(width);
        const detail::StageTimers timers{opts.stageTimers};
        for (int y = b; y < e; ++y) {
            timers.run("render.stage.dirs_ms", [&] { dirFn(y, rows); });
            timers.run("render.stage.raycast_ms", [&] {
                detail::raycastRow(world, origin, opts, width, rows);
            });
            timers.run("render.stage.terrain_ms", [&] {
                detail::terrainRow(world, origin, opts, width, rows);
            });
            timers.run("render.stage.shade_ms", [&] {
                detail::shadeRow(world, origin, opts, width, rows);
            });
            timers.run("render.stage.sky_ms", [&] {
                detail::compositeRow(world, opts, width, rows,
                                     &frame.at(0, y));
            });
        }
    });
}

/**
 * Emit cumulative `bvh.*` counter tracks after a frame so captures
 * carry the traversal-cost trajectory (trace_report folds them into
 * its render section). Cheap no-op unless a capture is active.
 */
void
traceBvhCounters()
{
    if (!obs::flight::capturing())
        return;
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    obs::flight::recordCounter(
        "bvh.nodes_visited",
        static_cast<double>(registry.counter("bvh.nodes_visited").value()));
    obs::flight::recordCounter(
        "bvh.leaf_tests",
        static_cast<double>(registry.counter("bvh.leaf_tests").value()));
}

} // namespace

Rgb
Renderer::shadeRay(const Ray &ray, const RenderOptions &opts) const
{
    // Closest object hit within the layer's depth interval.
    Ray clipped = ray;
    clipped.tMin = std::max(ray.tMin, opts.layer.nearClip);
    clipped.tMax = std::min(ray.tMax, opts.layer.farClip);

    Hit obj_hit;
    if (clipped.tMin < clipped.tMax)
        obj_hit = world_.bvh().closestHit(clipped);

    // Terrain hit within the same interval, by the uncapped march.
    double terrain_t = std::numeric_limits<double>::infinity();
    if (clipped.tMin < clipped.tMax) {
        const std::optional<double> t =
            world_.terrain().intersect(clipped, opts.terrainMaxDist);
        if (t && *t >= clipped.tMin && *t <= clipped.tMax)
            terrain_t = *t;
    }

    const bool object_wins = obj_hit.valid() && obj_hit.t < terrain_t;
    if (object_wins) {
        const world::WorldObject &obj = world_.object(obj_hit.objectId);
        double light = 1.0;
        if (opts.shading) {
            const double diffuse =
                std::max(0.0, obj_hit.normal.dot(detail::kSunDir));
            light = 0.40 + 0.60 * diffuse;
        }
        if (opts.texture)
            light *=
                detail::textureFactor(obj_hit.point, obj_hit.t, opts);
        return detail::applyLight(obj.color, light);
    }
    if (std::isfinite(terrain_t)) {
        const Vec3 p = ray.at(terrain_t);
        const Rgb base = world_.terrain().colorAt(p.ground());
        double light = 1.0;
        if (opts.shading) {
            const double diffuse = std::max(
                0.0,
                world_.terrain().normalAt(p.ground()).dot(detail::kSunDir));
            light = 0.45 + 0.55 * diffuse;
        }
        if (opts.texture)
            light *= detail::textureFactor(p, terrain_t, opts);
        return detail::applyLight(base, light);
    }

    // Nothing in this depth layer. Far layers fall through to sky; a
    // clipped near layer reports the chroma key so merging works.
    if (std::isfinite(opts.layer.farClip)) {
        // Check whether something exists beyond the far clip: if the
        // layer is near-BE, everything beyond belongs to far BE and
        // this pixel must be transparent.
        return opts.clipKey;
    }
    const double pitch = std::asin(std::clamp(ray.dir.y, -1.0, 1.0));
    return world_.skyColor(std::max(0.0, pitch));
}

Image
Renderer::renderPerspective(const Camera &camera, int width, int height,
                            const RenderOptions &opts) const
{
    COTERIE_SPAN("render.perspective", "render");
    COTERIE_TIMER_SCOPE("render.perspective_ms");
    COTERIE_COUNT("render.perspective_frames");
    Image frame(width, height);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);
    RenderOptions local = opts;
    local.pixelAngleRad = camera.fovY / static_cast<double>(height);
    batchedFrame(world_, camera.position, local, width, height, frame,
                 [&](int y, detail::RowBuffers &rows) {
                     detail::perspectiveRowDirs(camera, aspect, y, width,
                                                height, rows);
                 });
    traceBvhCounters();
    return frame;
}

Image
Renderer::renderPanorama(Vec3 eye, int width, int height,
                         const RenderOptions &opts) const
{
    COTERIE_SPAN("render.panorama", "render");
    COTERIE_TIMER_SCOPE("render.panorama_ms");
    COTERIE_COUNT("render.panorama_frames");
    Image frame(width, height);
    RenderOptions local = opts;
    local.pixelAngleRad = M_PI / static_cast<double>(height);
    batchedFrame(world_, eye, local, width, height, frame,
                 [&](int y, detail::RowBuffers &rows) {
                     detail::panoramaRowDirs(y, width, height, rows);
                 });
    traceBvhCounters();
    return frame;
}

Image
Renderer::merge(const Image &nearLayer, const Image &farLayer, Rgb clipKey)
{
    COTERIE_ASSERT(nearLayer.width() == farLayer.width() &&
                   nearLayer.height() == farLayer.height(),
                   "merge size mismatch");
    Image out = farLayer;
    // Rows write disjoint pixels and read immutable inputs, so pool
    // chunking keeps the result byte-identical to the serial loop.
    parallelRows(out.height(), 0, [&](int y) {
        for (int x = 0; x < out.width(); ++x) {
            const Rgb p = nearLayer.at(x, y);
            if (!(p == clipKey))
                out.at(x, y) = p;
        }
    });
    return out;
}

Image
cropPanoramaToView(const Image &panorama, const Camera &camera, int width,
                   int height)
{
    Image out(width, height);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);
    // Bilinear texture sampling (what the GPU's SphereTexture lookup
    // does); yaw wraps around, pitch clamps at the poles.
    const int pw = panorama.width();
    const int ph = panorama.height();
    auto sample = [&](double u, double v) {
        const double fx = u * pw - 0.5;
        const double fy = v * ph - 0.5;
        const auto x0 = static_cast<int>(std::floor(fx));
        const auto y0 = static_cast<int>(std::floor(fy));
        const double tx = fx - x0;
        const double ty = fy - y0;
        auto texel = [&](int x, int y) -> const Rgb & {
            const int xw = ((x % pw) + pw) % pw;
            const int yc = std::clamp(y, 0, ph - 1);
            return panorama.at(xw, yc);
        };
        const Rgb &c00 = texel(x0, y0);
        const Rgb &c10 = texel(x0 + 1, y0);
        const Rgb &c01 = texel(x0, y0 + 1);
        const Rgb &c11 = texel(x0 + 1, y0 + 1);
        auto mix = [&](std::uint8_t a, std::uint8_t b, std::uint8_t c,
                       std::uint8_t d) {
            const double top = a * (1.0 - tx) + b * tx;
            const double bot = c * (1.0 - tx) + d * tx;
            return static_cast<std::uint8_t>(
                std::clamp(top * (1.0 - ty) + bot * ty, 0.0, 255.0));
        };
        return Rgb{mix(c00.r, c10.r, c01.r, c11.r),
                   mix(c00.g, c10.g, c01.g, c11.g),
                   mix(c00.b, c10.b, c01.b, c11.b)};
    };
    // Per-pixel work is pure resampling; rows are independent, so the
    // pool-chunked result is byte-identical to the serial loop.
    parallelRows(height, 0, [&](int y) {
        const double sy = 1.0 - 2.0 * (y + 0.5) / height;
        for (int x = 0; x < width; ++x) {
            const double sx = 2.0 * (x + 0.5) / width - 1.0;
            const Vec3 dir = camera.rayDirection(sx, sy, aspect);
            double u, v;
            directionToPanoramaUv(dir, u, v);
            out.at(x, y) = sample(u, v);
        }
    });
    return out;
}

} // namespace coterie::render
