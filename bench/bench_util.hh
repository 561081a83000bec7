/**
 * @file
 * Shared helpers for the experiment-reproduction benches: session
 * setup, table formatting, and paper-vs-measured reporting.
 *
 * Every bench prints the paper's reported values next to our measured
 * ones; EXPERIMENTS.md summarises the comparisons.
 */

#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "core/session.hh"
#include "obs/json.hh"
#include "support/parallel.hh"

namespace coterie::bench {

/** Default bench run length (seconds of simulated play). */
inline constexpr double kBenchDurationS = 40.0;

/** Build a session with bench defaults. */
inline std::unique_ptr<core::Session>
makeSession(world::gen::GameId game, int players,
            double durationS = kBenchDurationS, std::uint64_t seed = 42)
{
    core::SessionParams params;
    params.players = players;
    params.durationS = durationS;
    params.seed = seed;
    return core::Session::create(game, params);
}

/** Print a bench header. */
inline void
banner(const char *title, const char *paperRef)
{
    std::printf("\n==============================================="
                "=============================\n");
    std::printf("%s\n  (reproduces %s)\n", title, paperRef);
    std::printf("================================================"
                "============================\n");
}

/** Print one "paper vs measured" line. */
inline void
compare(const char *label, double paper, double measured,
        const char *unit = "")
{
    std::printf("  %-38s paper %8.2f   measured %8.2f %s\n", label, paper,
                measured, unit);
}

/**
 * Write a bench's result document to `results/BENCH_<name>.json` AND
 * the working-directory `BENCH_<name>.json`. Every bench that emits
 * machine-readable numbers goes through here so the two locations
 * (archival under results/, driver pickup at the root) never drift.
 * The document is stamped with the machine it ran on — hardware
 * concurrency and the shared pool's lane count — since wall-clock
 * numbers only compare between runs on the same machine.
 */
inline void
writeBenchJson(const std::string &name, const obs::Json &doc)
{
    obs::Json stamped = obs::Json::object();
    stamped.set("hardware_concurrency",
                obs::Json(static_cast<std::uint64_t>(
                    std::thread::hardware_concurrency())));
    stamped.set("pool_lanes",
                obs::Json(support::ThreadPool::instance().concurrency()));
    for (const auto &[key, value] : doc.members())
        stamped.set(key, value);

    ::mkdir("results", 0755);
    const std::string text = stamped.dump(2) + "\n";
    const std::string paths[] = {"results/BENCH_" + name + ".json",
                                 "BENCH_" + name + ".json"};
    for (const std::string &path : paths) {
        if (std::FILE *f = std::fopen(path.c_str(), "w")) {
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
            std::printf("  wrote %s\n", path.c_str());
        } else {
            std::printf("  could not write %s\n", path.c_str());
        }
    }
}

/** Print a CDF as decile rows. */
inline void
printCdf(const char *label, const SampleSet &samples)
{
    std::printf("  %s: n=%zu\n", label, samples.count());
    std::printf("    p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f "
                "max=%.3f\n",
                samples.percentile(10), samples.percentile(25),
                samples.percentile(50), samples.percentile(75),
                samples.percentile(90), samples.max());
}

} // namespace coterie::bench

