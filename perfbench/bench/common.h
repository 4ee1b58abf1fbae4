/**
 * @file
 * Shared pieces of the benchmark: options, the result record,
 * the metric catalogue, clocks, and the pipeline stages that more than
 * one workload runs (explicit pass sequence and post-build audit).
 */
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harden/harden.h"
#include "ir/module.h"
#include "pibe/pipeline.h"
#include "profile/edge_profile.h"
#include "runtime/thread_pool.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Small inputs (the benchmark's own tests). */
    bool small = false;
    /** Corrupt one output so the correctness gates must fail. */
    bool corrupt = false;
    /** Where the traced run writes its trace files. */
    std::string out_dir = ".";
};

struct Metric
{
    double value = 0;
    std::string unit;
};

/** Everything one run reports. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< First few failed gates.
    std::map<std::string, double> values;

    /** Count one correctness gate; a false `ok` is a failed op. */
    void gate(bool ok, const std::string& what);
    void set(const std::string& name, double value)
    {
        values[name] = value;
    }
};

/** One metric of the catalogue: name and unit. */
struct MetricSpec
{
    const char* name;
    const char* unit;
};

/** End-to-end metrics (untraced runs), in BENCHMARK.json order. */
const std::vector<MetricSpec>& endToEndMetrics();
/** Per-layer metrics (traced runs), in BENCHMARK.json order. */
const std::vector<MetricSpec>& perLayerMetrics();

double msSince(Clock::time_point t0);
double secondsSince(Clock::time_point t0);
/** User + system CPU time of the whole process (s). */
double processCpuSeconds();
/** Peak resident set size of the process (MB). */
double peakRssMb();
double median(std::vector<double> v);
/** Nearest-rank percentile, p in [0, 1]. */
double percentile(std::vector<double> v, double p);

/** Worker cap: hardware threads, at most 4. */
unsigned workerCap();

/**
 * Workers of the pools whose work is timed: the engine's and the check
 * shards'. One, because a shared machine lends a run between about one
 * and four usable cores from one moment to the next (see
 * context.parallelism); a pool of workerCap() workers would time that,
 * not the program. The serve daemon has kDaemonWorkers (serve_mixed.cc)
 * and the load generator workerCap() connections.
 */
constexpr unsigned kPoolWorkers = 1;

/**
 * Set-ups timed per untraced run, half before the timed phase and half
 * after it, so that the samples of setup_s (a median) spread over the
 * run rather than over one slow moment of a shared machine.
 */
constexpr int kSetups = 8;

/** FNV digest (hex) of a module's canonical text. */
std::string textDigest(const std::string& text);

/** The Table-5 `pibe-all` optimisation: ICP 99.999% + inliner 99.9999%. */
pibe::core::OptConfig pibeConfig();

/** Counters the explicit pipeline stages accumulate. */
struct StageCounts
{
    uint64_t promoted_sites = 0;
    uint64_t inlined_sites = 0;
    uint64_t attempted_sites = 0;
    uint64_t protected_sites = 0;
    uint64_t solver_pops = 0;
    double shards_ms = 0;
    double module_ms = 0;
};

/**
 * The passes of core::buildImage with its pass sandwich off, called
 * one by one under spans: opt.icp, opt.inline, harden.apply,
 * ir.verify. The result equals core::buildImage's image.
 */
pibe::ir::Module buildExplicit(Tracer& tracer,
                               const pibe::ir::Module& linked,
                               const pibe::profile::EdgeProfile& profile,
                               const pibe::core::OptConfig& opt,
                               const pibe::harden::DefenseConfig& defense,
                               StageCounts* counts, bool* verified);

/**
 * Post-build audit of an image: the target-set solve, the parallel
 * check suite (coverage + targets) on `pool`, and the coverage
 * analysis, each under a span. Returns true if no error was found.
 */
bool auditImage(Tracer& tracer, const pibe::ir::Module& image,
                const pibe::harden::DefenseConfig& defense,
                pibe::runtime::ThreadPool& pool, StageCounts* counts);

/**
 * Per-layer times from spans: each span name N with a per-layer
 * metric "N_ms" that the workload has not set gets the summed
 * duration of N's spans.
 */
void reportSpans(const Tracer& tracer, Result& r);

/**
 * Run `untraced(i)` for i = 1, `traced()`, then `untraced(i)` for
 * i = 3, so warm-up effects fall on both sides; returns the mean
 * untraced wall time (ms), the base of the tracing overhead.
 */
template <typename Untraced, typename Traced>
double
untracedAround(Untraced untraced, Traced traced)
{
    Clock::time_point t0 = Clock::now();
    untraced(1);
    double ms = msSince(t0);
    traced();
    t0 = Clock::now();
    untraced(3);
    return (ms + msSince(t0)) / 2;
}

/**
 * Pass-sandwich cost: core::buildImage of the PIBE config with all
 * defenses, with the sandwich on minus off (ms). `text` receives the
 * printed image of the sandwiched build.
 */
double sandwichMs(const pibe::ir::Module& linked,
                  const pibe::profile::EdgeProfile& profile,
                  std::string* text);

/** Copy stage counters into per-layer metric values. */
void reportStageCounts(const StageCounts& c, Result& r);

/**
 * Layer accounting of a traced pass whose root span is `root`: self
 * time per span plus `trace.unattributed_ms` must equal
 * `trace.total_ms`; the check is one gate.
 */
void reportAccounting(const Tracer& tracer, const std::string& root,
                      Result& r);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
