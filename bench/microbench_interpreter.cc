/**
 * @file
 * Host-side google-benchmark microbenchmarks for the simulator itself
 * (instructions per wall-clock second, pipeline pass throughput).
 * These measure the reproduction's own engine, not the paper's
 * results — the table/figure binaries alongside this one use
 * simulated cycles, which wall-clock timing cannot express.
 *
 * Besides the google-benchmark suite, `--interpreter-json FILE` runs
 * the dispatch-cost harness on the same syscall workload and writes
 * FILE (BENCH_interpreter.json): throughput of the decoded switch
 * loop with and without decode-time fusion, the pre-rewrite reference
 * loop as the speedup denominator, per-family superinstruction
 * coverage (static sites + dynamic executions), the decode-time opcode
 * and digram histograms the fusion set was chosen from (the shared
 * uarch::decodeStatsJson shape), and a provenance block (git sha,
 * compiler, CPU model) so recorded numbers are attributable to a
 * machine and build.
 *
 * Throughput methodology: each configuration reports its *peak*
 * 1000-syscall window over >= 2 s of measurement. A window (~1.5 ms)
 * is long against clock resolution but short against scheduler
 * quanta, so on a shared/noisy host the peak window reflects the
 * engine's actual speed rather than whatever else the machine was
 * doing — whole-run averages on a loaded 1-core box were observed to
 * swing by 2x run to run. The three configurations are booted up
 * front and their windows alternate in one loop, so a swing in host
 * speed lands on all of them alike and cancels out of the speedup.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "opt/cleanup.h"
#include "opt/icp.h"
#include "opt/inliner.h"
#include "support/json.h"
#include "support/timer.h"
#include "uarch/simulator.h"

namespace pibe {
namespace {

const kernel::KernelImage&
sharedKernel()
{
    static kernel::KernelImage image = [] {
        kernel::KernelConfig cfg;
        cfg.num_drivers = 32;
        return kernel::buildKernel(cfg);
    }();
    return image;
}

const profile::EdgeProfile&
sharedProfile()
{
    static profile::EdgeProfile p = [] {
        const auto& k = sharedKernel();
        auto suite = workload::makeLmbenchSuite();
        return core::collectProfile(k.module, k.info, suite, 30);
    }();
    return p;
}

void
syscallThroughput(benchmark::State& state, bool reference)
{
    const auto& k = sharedKernel();
    uarch::Simulator sim(k.module);
    sim.setUseReferencePath(reference);
    workload::KernelHandle handle(sim, k.info);
    handle.boot();
    uint64_t instructions = 0;
    for (auto _ : state) {
        sim.clearStats();
        handle.syscall(kernel::sysno::kRead, 3, 0, 4);
        instructions += sim.stats().instructions;
    }
    state.counters["sim_instructions_per_s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void
BM_SimulatorSyscallThroughput(benchmark::State& state)
{
    syscallThroughput(state, /*reference=*/false);
}
BENCHMARK(BM_SimulatorSyscallThroughput);

/** The pre-rewrite loop on the same workload: the denominator of the
 *  decoded engine's speedup. */
void
BM_SimulatorSyscallThroughputReference(benchmark::State& state)
{
    syscallThroughput(state, /*reference=*/true);
}
BENCHMARK(BM_SimulatorSyscallThroughputReference);

void
BM_KernelBuild(benchmark::State& state)
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = static_cast<uint32_t>(state.range(0));
    for (auto _ : state) {
        auto image = kernel::buildKernel(cfg);
        benchmark::DoNotOptimize(image.module.numFunctions());
    }
}
BENCHMARK(BM_KernelBuild)->Arg(8)->Arg(32)->Arg(160);

void
BM_PibeInliner(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        ir::Module m = sharedKernel().module;  // copy
        profile::EdgeProfile p = sharedProfile();
        state.ResumeTiming();
        opt::PibeInlinerConfig cfg;
        cfg.budget =
            static_cast<double>(state.range(0)) / 1000.0;
        auto audit = opt::runPibeInliner(m, p, cfg);
        benchmark::DoNotOptimize(audit.inlined_sites);
    }
}
BENCHMARK(BM_PibeInliner)->Arg(990)->Arg(999)->Arg(1000);

void
BM_Icp(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        ir::Module m = sharedKernel().module;
        profile::EdgeProfile p = sharedProfile();
        state.ResumeTiming();
        auto audit = opt::runIcp(m, p, {});
        benchmark::DoNotOptimize(audit.promoted_sites);
    }
}
BENCHMARK(BM_Icp);

void
BM_CleanupModule(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        ir::Module m = sharedKernel().module;
        state.ResumeTiming();
        opt::cleanupModule(m);
        benchmark::DoNotOptimize(m.numFunctions());
    }
}
BENCHMARK(BM_CleanupModule);

// ---------------------------------------------------------------------
// --interpreter-json: the dispatch-cost harness, as JSON.

/** One measured interpreter configuration. */
struct RateConfig
{
    bool reference = false; ///< Pre-rewrite loop (ignores the rest).
    bool fuse = true;       ///< Decode-time superinstruction fusion.
};

/**
 * Peak simulated-instructions-per-host-second over 1000-syscall
 * windows of the read-syscall workload, one rate per entry of
 * `configs`. Every simulator is booted and warmed before the first
 * window; then one window of each configuration runs in turn until
 * each has been measured for >= min_seconds. See the file comment for
 * why peak-window beats a whole-run average on shared hosts.
 */
std::vector<double>
syscallRates(const std::vector<RateConfig>& configs, double min_seconds)
{
    struct Probe
    {
        std::unique_ptr<uarch::Simulator> sim;
        std::unique_ptr<workload::KernelHandle> handle;
        double measured_s = 0;
        double best = 0;
    };
    const auto& k = sharedKernel();
    std::vector<Probe> probes;
    for (const RateConfig& cfg : configs) {
        Probe p;
        p.sim = std::make_unique<uarch::Simulator>(
            std::make_shared<const uarch::DecodedModule>(k.module,
                                                         cfg.fuse));
        p.sim->setUseReferencePath(cfg.reference);
        p.handle =
            std::make_unique<workload::KernelHandle>(*p.sim, k.info);
        p.handle->boot();
        for (int i = 0; i < 200; ++i)
            p.handle->syscall(kernel::sysno::kRead, 3, 0, 4);
        probes.push_back(std::move(p));
    }
    auto done = [&] {
        return std::all_of(probes.begin(), probes.end(),
                           [&](const Probe& p) {
                               return p.measured_s >= min_seconds;
                           });
    };
    while (!done()) {
        for (Probe& p : probes) {
            p.sim->clearStats();
            const Stopwatch window;
            for (int i = 0; i < 1000; ++i)
                p.handle->syscall(kernel::sysno::kRead, 3, 0, 4);
            const double dt = window.ms() / 1e3;
            p.measured_s += dt;
            p.best = std::max(
                p.best,
                static_cast<double>(p.sim->stats().instructions) / dt);
        }
    }
    std::vector<double> rates;
    for (const Probe& p : probes)
        rates.push_back(p.best);
    return rates;
}

/** First line of a shell command's output ("" on failure). */
std::string
firstLineOf(const char* cmd)
{
    std::string line;
    if (std::FILE* p = ::popen(cmd, "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p)) {
            line = buf;
            while (!line.empty() &&
                   (line.back() == '\n' || line.back() == '\r'))
                line.pop_back();
        }
        ::pclose(p);
    }
    return line;
}

/** "model name" from /proc/cpuinfo ("" when unavailable). */
std::string
cpuModel()
{
    std::string model;
    if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
        char buf[512];
        while (std::fgets(buf, sizeof buf, f)) {
            if (std::strncmp(buf, "model name", 10) == 0) {
                const char* colon = std::strchr(buf, ':');
                if (colon) {
                    model = colon + 1;
                    while (!model.empty() &&
                           (model.front() == ' ' ||
                            model.front() == '\t'))
                        model.erase(model.begin());
                    while (!model.empty() &&
                           (model.back() == '\n' ||
                            model.back() == '\r'))
                        model.pop_back();
                }
                break;
            }
        }
        std::fclose(f);
    }
    return model;
}

const char*
compilerId()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

int
writeInterpreterJson(const char* path)
{
    using uarch::Simulator;
    const auto& k = sharedKernel();

    const Stopwatch decode_timer;
    const uarch::DecodedModule decoded(k.module);
    const double decode_ms = decode_timer.ms();

    const std::vector<double> rates = syscallRates(
        {{.reference = true}, {.fuse = true}, {.fuse = false}}, 2.0);
    const double reference = rates[0];
    const double hot = rates[1];
    const double unfused = rates[2];

    // Per-family dynamic execution counts over a fixed syscall batch
    // (the dispatch-count side of the per-digram cost story; the rate
    // deltas above are the time side).
    Simulator fsim(k.module);
    workload::KernelHandle fhandle(fsim, k.info);
    fhandle.boot();
    fsim.clearStats();
    for (int i = 0; i < 2000; ++i)
        fhandle.syscall(kernel::sysno::kRead, 3, 0, 4);
    const uarch::RunStats& fstats = fsim.stats();

    Json doc = uarch::decodeStatsJson(decoded, fstats.fused);
    doc.set("benchmark", "read syscall, 32-driver kernel");
    doc.set("methodology",
            "peak 1000-syscall window over >=2s per configuration, "
            "configurations' windows alternating");
    doc.set("decoded_minstr_per_s", hot / 1e6);
    doc.set("decoded_unfused_minstr_per_s", unfused / 1e6);
    doc.set("reference_minstr_per_s", reference / 1e6);
    doc.set("speedup", hot / reference);
    doc.set("decode_ms", decode_ms);
    // Measured dispatch cost: how many dispatches the fixed syscall
    // batch performed (fused pairs retire two instructions per
    // dispatch) and the derived per-dispatch cost, fused and unfused
    // — the number a future fusion candidate's expected
    // saving is priced against.
    {
        uint64_t fused_execs = 0;
        for (uint64_t n : fstats.fused)
            fused_execs += n;
        const uint64_t insts = fstats.instructions;
        const uint64_t dispatches = insts - fused_execs;
        const double per_disp =
            static_cast<double>(insts) / dispatches;
        Json cost = Json::object();
        cost.set("instructions", insts);
        cost.set("dispatches", dispatches);
        cost.set("fused_execs", fused_execs);
        cost.set("ns_per_dispatch", 1e9 / hot * per_disp);
        cost.set("unfused_ns_per_dispatch", 1e9 / unfused);
        doc.set("dispatch_cost", std::move(cost));
    }
    // Provenance: make the recorded number attributable.
    {
        char stamp[64] = "";
        const std::time_t now = std::time(nullptr);
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      std::gmtime(&now));
        Json prov = Json::object();
        prov.set("git_sha",
                 firstLineOf("git rev-parse --short HEAD 2>/dev/null"));
        prov.set("compiler", compilerId());
        prov.set("cpu", cpuModel());
        prov.set("timestamp_utc", stamp);
        doc.set("provenance", std::move(prov));
    }
    std::ofstream out(path);
    if (!(out << doc.dump() << "\n")) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::printf("interpreter: decoded %.2f Minstr/s (unfused %.2f), "
                "reference %.2f Minstr/s (%.2fx) -> %s\n",
                hot / 1e6, unfused / 1e6, reference / 1e6,
                hot / reference, path);
    return 0;
}

} // namespace
} // namespace pibe

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--interpreter-json") == 0 &&
            i + 1 < argc)
            return pibe::writeInterpreterJson(argv[i + 1]);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
