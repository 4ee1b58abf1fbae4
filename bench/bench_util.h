/**
 * @file
 * Shared machinery for the benchmark harness.
 *
 * Every bench binary regenerates one table or figure of the paper:
 * it builds the synthetic kernel, collects the LMBench profile
 * (phase 1), derives the images its experiment needs (phase 2), runs
 * the measurements, and prints rows in the paper's layout next to the
 * paper's published numbers. Absolute values differ (the substrate is
 * a simulator, not an i7-8700K running Linux 5.1); the *shape* — who
 * wins, by roughly what factor, where crossovers fall — is the
 * reproduction target (see EXPERIMENTS.md).
 */
#ifndef PIBE_BENCH_BENCH_UTIL_H_
#define PIBE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "pibe/engine.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "support/json.h"
#include "support/stats.h"
#include "support/table.h"
#include "workload/workload.h"

namespace pibe::bench {

/** The evaluation kernel: full-size, fixed seed. */
inline kernel::KernelImage
buildEvalKernel()
{
    return kernel::buildKernel(kernel::KernelConfig{});
}

/** Standard measurement knobs used across all tables. */
inline core::MeasureConfig
measureConfig()
{
    core::MeasureConfig cfg;
    cfg.warmup_iters = 150;
    cfg.measure_iters = 400;
    return cfg;
}

/**
 * Phase 1: the LMBench profiling workload. Delegates to the engine's
 * canonical skewed profile (see core::collectLmbenchProfile) so the
 * serial bench path and the job-graph path train on identical data.
 */
inline profile::EdgeProfile
collectLmbenchProfile(const kernel::KernelImage& k,
                      uint32_t base_iters = 120)
{
    return core::collectLmbenchProfile(k.module, k.info, base_iters);
}

/** Latencies of the LMBench suite on an image, keyed by test name. */
inline std::map<std::string, double>
lmbenchLatencies(const ir::Module& image, const kernel::KernelInfo& info)
{
    auto suite = workload::makeLmbenchSuite();
    std::map<std::string, double> out;
    for (auto& wl : suite) {
        out[wl->name()] =
            core::measureWorkload(image, info, *wl, measureConfig())
                .latency_us;
    }
    return out;
}

/** Overhead of `image` vs `baseline` per LMBench test + geomean. */
struct OverheadSet
{
    std::map<std::string, double> per_test; ///< Fractions.
    double geomean = 0;
};

inline OverheadSet
overheadsVs(const std::map<std::string, double>& baseline,
            const std::map<std::string, double>& measured)
{
    OverheadSet set;
    std::vector<double> all;
    for (const auto& [name, base] : baseline) {
        double o = overhead(measured.at(name), base);
        set.per_test[name] = o;
        all.push_back(o);
    }
    set.geomean = geomeanOverhead(all);
    return set;
}

/** Print a titled table with a short preamble. */
inline void
printTable(const std::string& title, const std::string& note,
           const Table& table)
{
    std::printf("\n=== %s ===\n", title.c_str());
    if (!note.empty())
        std::printf("%s\n", note.c_str());
    std::printf("%s", table.render().c_str());
    std::fflush(stdout);
}

/**
 * Shared command-line options of the converted table binaries:
 *
 *   --jobs N            worker threads for the job graph (default 1)
 *   --cache-dir DIR     on-disk artifact cache (shared across tables)
 *   --no-cache          disable memoization entirely
 *   --metrics           print the per-job metrics table (stderr)
 *   --metrics-json PATH write a one-line JSON metrics fragment
 *
 * Metrics never go to stdout, so table output stays byte-comparable
 * between serial and parallel runs.
 */
struct BenchArgs
{
    core::EngineOptions engine;
    bool show_metrics = false;
    std::string metrics_json;
};

inline BenchArgs
parseBenchArgs(int argc, char** argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--jobs")
            args.engine.jobs =
                static_cast<unsigned>(std::stoul(next()));
        else if (a == "--cache-dir")
            args.engine.cache_dir = next();
        else if (a == "--no-cache")
            args.engine.use_cache = false;
        else if (a == "--metrics")
            args.show_metrics = true;
        else if (a == "--metrics-json")
            args.metrics_json = next();
        else {
            std::fprintf(stderr,
                         "unknown option '%s' (supported: --jobs N, "
                         "--cache-dir DIR, --no-cache, --metrics, "
                         "--metrics-json PATH)\n",
                         a.c_str());
            std::exit(2);
        }
    }
    return args;
}

/** Report run metrics per the flags; call once after the table prints. */
inline void
finishBench(const BenchArgs& args, const std::string& table_id,
            const core::ExperimentResults& results)
{
    if (args.show_metrics) {
        std::fprintf(stderr, "\n--- %s: engine metrics ---\n%s",
                     table_id.c_str(),
                     core::engineMetricsTable(results).render().c_str());
    }
    if (!args.metrics_json.empty()) {
        Json doc = Json::object();
        doc.set("table", table_id);
        doc.set("wall_s", results.wall_ms / 1000.0);
        doc.set("jobs", args.engine.jobs);
        doc.set("num_graph_jobs", results.jobs.size());
        doc.set("cache_mem_hits", results.cache.mem_hits);
        doc.set("cache_disk_hits", results.cache.disk_hits);
        doc.set("cache_misses", results.cache.misses);
        doc.set("cache_puts", results.cache.puts);
        doc.set("cache_hit_rate", results.cache.hitRate());
        std::ofstream(args.metrics_json) << doc.dump() << "\n";
    }
}

} // namespace pibe::bench

#endif // PIBE_BENCH_BENCH_UTIL_H_
