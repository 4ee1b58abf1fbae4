/**
 * @file
 * perfbench — the PIBE benchmark program.
 *
 *   perfbench --workload <paper_eval|linux_scale_build|serve_mixed>
 *             --seed N --seconds S --trace 0|1
 *             [--small] [--corrupt] [--out-dir DIR] [--provenance TEXT]
 *
 * Prints a run-context line, a readable metric table, and as its last
 * stdout line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer metrics of a separate traced run.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "runtime/digest.h"
#include "uarch/simulator.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** The calibration probe's results. */
struct Calibration
{
    double one_ms = 0;      ///< The fixed job alone on one thread.
    double parallelism = 0; ///< Total work over concurrent wall time.
};

/**
 * Machine speed and effective parallelism right now: a fixed CPU-bound
 * job run once on one thread, then `workerCap()` times concurrently.
 * The job is long enough (about 0.1 s) that waking idle cores does not
 * dominate the parallel leg.
 */
Calibration
calibrationProbe()
{
    auto job = [] {
        pibe::runtime::Digest d;
        for (uint64_t i = 0; i < 32000000; ++i)
            d.add(i);
        return d.hex();
    };
    Clock::time_point t0 = Clock::now();
    volatile size_t sink = job().size();
    const double one = secondsSince(t0);
    const unsigned n = workerCap();
    std::vector<std::thread> threads;
    t0 = Clock::now();
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back([&] { sink = job().size(); });
    for (auto& t : threads)
        t.join();
    (void)sink;
    return {one * 1e3, one * n / secondsSince(t0)};
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper_eval|linux_scale_build|serve_mixed> --seed N "
                 "--seconds S --trace 0|1 [--small] [--corrupt] "
                 "[--out-dir DIR] [--provenance TEXT]\n",
                 msg);
    return 2;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
run(int argc, char** argv)
{
    Options opt;
    std::string provenance = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--small") {
            opt.small = true;
        } else if (a == "--corrupt") {
            opt.corrupt = true;
        } else if ((v = value()) == nullptr) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, nullptr);
            have_seconds = opt.seconds > 0;
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            have_trace = opt.trace || std::strcmp(v, "0") == 0;
        } else if (a == "--out-dir") {
            opt.out_dir = v;
        } else if (a == "--provenance") {
            provenance = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    void (*workload)(const Options&, Result&) = nullptr;
    if (opt.workload == "paper_eval")
        workload = runPaperEval;
    else if (opt.workload == "linux_scale_build")
        workload = runLinuxScaleBuild;
    else if (opt.workload == "serve_mixed")
        workload = runServeMixed;
    if (!workload)
        return usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    // Run-context stamp: the same fields on every result.
    const Calibration cal = calibrationProbe();
    const char* dispatch =
        pibe::uarch::Simulator::defaultDispatchMode() ==
                pibe::uarch::Simulator::DispatchMode::kThreaded
            ? "threaded"
            : "switch";
    std::printf("# context workload=%s seed=%llu trace=%d nproc=%u "
                "parallelism=%.2f probe_ms=%.1f provenance=%s "
                "compiler=\"%s\" build_type=%s dispatch=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
                cal.parallelism, cal.one_ms, provenance.c_str(),
                compilerName().c_str(), PERFBENCH_BUILD_TYPE, dispatch);
    std::fflush(stdout);

    Result r;
    try {
        workload(opt, r);
    } catch (const std::exception& e) {
        r.gate(false, std::string("exception: ") + e.what());
    }
    r.set("error_rate", static_cast<double>(r.failed) /
                            static_cast<double>(std::max<uint64_t>(
                                1, r.attempted)));
    r.set("peak_rss_mb", peakRssMb());
    r.set("context.nproc", std::thread::hardware_concurrency());
    r.set("context.parallelism", cal.parallelism);
    r.set("context.probe_ms", cal.one_ms);

    for (const auto& [name, v] : r.values)
        std::printf("%-28s %.6g\n", name.c_str(), v);
    for (const std::string& e : r.errors)
        std::printf("# failed: %s\n", e.c_str());

    bool correct = r.failed == 0 && r.attempted > 0;
    std::string metrics;
    for (const MetricSpec& m :
         opt.trace ? perLayerMetrics() : endToEndMetrics()) {
        auto it = r.values.find(m.name);
        double v = it == r.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v) ||
            (!opt.trace && (it == r.values.end() || v <= 0))) {
            std::printf("# bad metric: %s\n", m.name);
            correct = false;
            v = std::isfinite(v) ? v : 0.0;
        }
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   m.name + "\": {\"value\": " + number(v) +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    1, r.attempted)),
                static_cast<unsigned long long>(r.failed),
                metrics.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    return perfbench::run(argc, argv);
}
