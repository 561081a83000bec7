/**
 * @file
 * Procedural heightfield terrain.
 *
 * The paper adjusts camera height per-location with a ray-cast "foothold"
 * query against the terrain; we reproduce that with an analytic value-
 * noise heightfield that also participates in rendering (ground pixels)
 * and the triangle-density model (terrain tessellation triangles count
 * toward near-BE render cost).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "geom/ray.hh"
#include "geom/region.hh"
#include "geom/vec.hh"
#include "image/image.hh"

namespace coterie::world {

/** Terrain configuration. */
struct TerrainParams
{
    std::uint64_t seed = 1;
    double amplitude = 3.0;      ///< peak-to-mean height variation (m)
    double featureScale = 60.0;  ///< horizontal noise wavelength (m)
    int octaves = 3;             ///< fractal octaves
    /** Triangles per square meter of the tessellated ground mesh. */
    double trianglesPerM2 = 8.0;
    /** Flat floor (indoor scenes). */
    bool flat = false;
};

/**
 * Continuous heightfield over the ground plane, built from fractal
 * value noise. Deterministic in its seed.
 *
 * The noise lattice values are pure functions of (octave, ix, iy), so
 * the constructor tabulates each octave's lattice over a cover
 * rectangle (the world bounds) grown by `kLatticeMargin` feature
 * scales; a height sample inside it reads its corners from the tables
 * and only points outside hash. The tables are written once, here, and
 * hold exactly the hashed doubles, so every query is bit-identical to
 * an untabulated terrain's.
 */
class Terrain
{
  public:
    /** How far the lattice tables reach past the cover, in feature
     *  scales. On a traced perfbench fleet_shared run (fleet, render
     *  probe and replay) all 343 M lookups land inside Viking's. */
    static constexpr double kLatticeMargin = 4.0;

    /** An empty @p cover (the default) tabulates nothing. */
    explicit Terrain(const TerrainParams &params = {},
                     const geom::Rect &cover = {});

    const TerrainParams &params() const { return params_; }

    /** Ground elevation at a ground-plane point. */
    double heightAt(geom::Vec2 p) const;

    /** Outward surface normal at a ground-plane point. */
    geom::Vec3 normalAt(geom::Vec2 p) const;

    /**
     * Foothold query: the paper ray-traces downward to place the camera.
     * Returns the standing elevation (== heightAt for a heightfield).
     */
    double foothold(geom::Vec2 p) const { return heightAt(p); }

    /**
     * March a ray against the heightfield; returns hit distance, or
     * nullopt if the ray escapes. An adaptive step march (one height
     * sample per step) with bisection refinement; tests/terrain_test.cc
     * pins a ray sweep's hits to a recorded digest.
     *
     * @p abortBeyond lets the renderer stop marching once the sample
     * distance exceeds a known closer object hit: the march aborts only
     * at a sample with t > abortBeyond that found no surface crossing,
     * and any crossing the full march could still find would bisect to
     * a root beyond that sample — i.e. beyond @p abortBeyond — so the
     * caller's object-vs-terrain resolution is unchanged. Infinity
     * (the default) reproduces the uncapped march exactly.
     */
    std::optional<double>
    intersect(const geom::Ray &ray, double maxDist,
              double abortBeyond =
                  std::numeric_limits<double>::infinity()) const;

    /** Ground albedo at a point (height/moisture-tinted). */
    image::Rgb colorAt(geom::Vec2 p) const;

    /** Terrain mesh triangles inside a disc of @p radius around @p p. */
    double trianglesWithin(geom::Vec2 p, double radius) const;

    /** Lattice values tabulated over all octaves (0 when untabulated). */
    std::size_t latticePoints() const;

  private:
    /** One octave's lattice values, row-major from (x0, y0). */
    struct Lattice
    {
        std::int64_t x0 = 0, y0 = 0;
        std::int64_t width = 0, height = 0;
        std::vector<double> values;

        /** Value at lattice point (ix, iy) when the cell it anchors
         *  (through ix + 1, iy + 1) is tabulated, else nullptr. */
        const double *cell(std::int64_t ix, std::int64_t iy) const;
    };

    double noise2(double x, double y, std::uint64_t salt,
                  const Lattice *lattice) const;
    double fractal(geom::Vec2 p) const;

    TerrainParams params_;
    std::vector<Lattice> lattice_; ///< per octave; empty if untabulated
};

} // namespace coterie::world

