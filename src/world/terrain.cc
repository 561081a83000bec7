#include "world/terrain.hh"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "support/rng.hh"

namespace coterie::world {

using geom::Ray;
using geom::Vec2;
using geom::Vec3;

namespace {

/** Quintic fade for value-noise interpolation. */
double
fade(double t)
{
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
}

double
latticeValue(std::int64_t ix, std::int64_t iy, std::uint64_t seed,
             std::uint64_t salt)
{
    std::uint64_t h = hashCombine(seed ^ salt,
                                  hashCombine(hashMix(ix), hashMix(iy)));
    h = hashMix(h);
    return (h >> 11) * 0x1.0p-53 * 2.0 - 1.0; // [-1, 1)
}

/** Noise salt of fractal octave @p o. */
std::uint64_t
octaveSalt(int o)
{
    return 0x5eedULL + static_cast<std::uint64_t>(o);
}

} // namespace

Terrain::Terrain(const TerrainParams &params, const geom::Rect &cover)
    : params_(params)
{
    if (params_.flat || cover.width() <= 0.0 || cover.height() <= 0.0)
        return;
    // Same frequency sequence as fractal(), so a table's index range
    // matches the lattice cells its octave's samples land in.
    const double margin = kLatticeMargin * params_.featureScale;
    double freq = 1.0 / params_.featureScale;
    lattice_.resize(static_cast<std::size_t>(std::max(params_.octaves, 0)));
    for (int o = 0; o < params_.octaves; ++o) {
        Lattice &l = lattice_[static_cast<std::size_t>(o)];
        const auto extent = [&](double lo, double hi) {
            const auto first =
                static_cast<std::int64_t>(std::floor((lo - margin) * freq));
            const auto last =
                static_cast<std::int64_t>(std::floor((hi + margin) * freq));
            // Points first ..= last + 1, the far corner of the last cell.
            return std::pair{first, last - first + 2};
        };
        std::tie(l.x0, l.width) = extent(cover.lo.x, cover.hi.x);
        std::tie(l.y0, l.height) = extent(cover.lo.y, cover.hi.y);
        l.values.resize(static_cast<std::size_t>(l.width * l.height));
        double *v = l.values.data();
        for (std::int64_t iy = l.y0; iy < l.y0 + l.height; ++iy)
            for (std::int64_t ix = l.x0; ix < l.x0 + l.width; ++ix)
                *v++ = latticeValue(ix, iy, params_.seed, octaveSalt(o));
        freq *= 2.0;
    }
}

std::size_t
Terrain::latticePoints() const
{
    std::size_t n = 0;
    for (const Lattice &l : lattice_)
        n += l.values.size();
    return n;
}

const double *
Terrain::Lattice::cell(std::int64_t ix, std::int64_t iy) const
{
    // Unsigned offsets: a cell left of or below the table wraps high.
    // A table is at least 2 points wide and high.
    const auto cx = static_cast<std::uint64_t>(ix) -
                    static_cast<std::uint64_t>(x0);
    const auto cy = static_cast<std::uint64_t>(iy) -
                    static_cast<std::uint64_t>(y0);
    if (cx >= static_cast<std::uint64_t>(width - 1) ||
        cy >= static_cast<std::uint64_t>(height - 1))
        return nullptr;
    return values.data() + cy * static_cast<std::uint64_t>(width) + cx;
}

double
Terrain::noise2(double x, double y, std::uint64_t salt,
                const Lattice *lattice) const
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const double tx = fade(x - fx);
    const double ty = fade(y - fy);
    double v00, v10, v01, v11;
    if (const double *row0 = lattice ? lattice->cell(ix, iy) : nullptr) {
        const double *row1 = row0 + lattice->width;
        v00 = row0[0];
        v10 = row0[1];
        v01 = row1[0];
        v11 = row1[1];
    } else {
        v00 = latticeValue(ix, iy, params_.seed, salt);
        v10 = latticeValue(ix + 1, iy, params_.seed, salt);
        v01 = latticeValue(ix, iy + 1, params_.seed, salt);
        v11 = latticeValue(ix + 1, iy + 1, params_.seed, salt);
    }
    const double a = v00 + (v10 - v00) * tx;
    const double b = v01 + (v11 - v01) * tx;
    return a + (b - a) * ty;
}

double
Terrain::fractal(Vec2 p) const
{
    double amp = 1.0;
    double freq = 1.0 / params_.featureScale;
    double sum = 0.0;
    double norm = 0.0;
    for (int o = 0; o < params_.octaves; ++o) {
        sum += amp * noise2(p.x * freq, p.y * freq, octaveSalt(o),
                            lattice_.empty() ? nullptr : &lattice_[o]);
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    return norm > 0.0 ? sum / norm : 0.0;
}

double
Terrain::heightAt(Vec2 p) const
{
    if (params_.flat)
        return 0.0;
    return params_.amplitude * fractal(p);
}

Vec3
Terrain::normalAt(Vec2 p) const
{
    if (params_.flat)
        return {0.0, 1.0, 0.0};
    const double eps = 0.25;
    const double hx =
        heightAt({p.x + eps, p.y}) - heightAt({p.x - eps, p.y});
    const double hy =
        heightAt({p.x, p.y + eps}) - heightAt({p.x, p.y - eps});
    return Vec3{-hx / (2 * eps), 1.0, -hy / (2 * eps)}.normalized();
}

std::optional<double>
Terrain::intersect(const Ray &ray, double maxDist, double abortBeyond) const
{
    if (params_.flat) {
        // Plane y = 0: exact solve, nothing to march or abort.
        if (std::abs(ray.dir.y) < 1e-12)
            return std::nullopt;
        const double t = -ray.origin.y / ray.dir.y;
        if (t < ray.tMin || t > std::min(ray.tMax, maxDist))
            return std::nullopt;
        return t;
    }
    // Adaptive march (step grows with distance — angular error budget),
    // then bisection refinement. A ray whose clipped start is already
    // below the surface is treated as clipped out (no hit), matching
    // depth-interval clipping semantics in the renderer.
    double t_prev = ray.tMin;
    const double h_start = ray.origin.y + t_prev * ray.dir.y -
                           heightAt(ray.at(t_prev).ground());
    if (h_start <= 0.0)
        return std::nullopt;
    const double limit = std::min(ray.tMax, maxDist);
    // Early-escape threshold for climbing rays. The fractal is a
    // normalized average of [-1, 1) noise, so |height| < |amplitude|
    // everywhere: above |amplitude| a non-descending ray can never
    // cross, making escape there result-identical to marching on. The
    // min() with amplitude + 0.5 (the original escape height) keeps
    // the escape no later than that for any params.
    const double escape =
        std::min(params_.amplitude + 0.5, std::abs(params_.amplitude));
    const bool climbing = ray.dir.y >= 0.0;
    double t = t_prev;
    while (t < limit) {
        t = std::min(limit, t + std::max(0.35, t * 0.025));
        const Vec3 p = ray.at(t);
        if (climbing && p.y > escape)
            return std::nullopt;
        if (p.y - heightAt(p.ground()) <= 0.0) {
            double lo = t_prev, hi = t;
            for (int i = 0; i < 16; ++i) {
                const double mid = 0.5 * (lo + hi);
                const Vec3 mp = ray.at(mid);
                if (mp.y - heightAt(mp.ground()) <= 0.0)
                    hi = mid;
                else
                    lo = mid;
            }
            return hi;
        }
        // No crossing up to this sample: a later root would bisect to
        // hi > t > abortBeyond, which the caller has declared
        // irrelevant (occluded by a closer hit).
        if (t > abortBeyond)
            return std::nullopt;
        t_prev = t;
    }
    return std::nullopt;
}

image::Rgb
Terrain::colorAt(Vec2 p) const
{
    if (params_.flat)
        return {96, 92, 88}; // indoor floor
    const double h = heightAt(p);
    const double moisture =
        0.5 + 0.5 * noise2(p.x / 37.0, p.y / 37.0, 0x5151ULL, nullptr);
    // Grass -> dirt -> rock blend with elevation.
    const double rockiness =
        std::clamp((h / std::max(params_.amplitude, 1e-9)) * 0.5 + 0.3,
                   0.0, 1.0);
    const auto mix = [](double a, double b, double t) {
        return a + (b - a) * t;
    };
    const double r = mix(mix(70, 110, moisture), 130, rockiness);
    const double g = mix(mix(120, 100, moisture), 125, rockiness);
    const double b = mix(mix(60, 60, moisture), 120, rockiness);
    return {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(g),
            static_cast<std::uint8_t>(b)};
}

double
Terrain::trianglesWithin(Vec2 /*p*/, double radius) const
{
    return params_.trianglesPerM2 * M_PI * radius * radius;
}

} // namespace coterie::world
