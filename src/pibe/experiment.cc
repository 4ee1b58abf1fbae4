#include "pibe/experiment.h"

namespace pibe::core {

Measurement
measureWorkload(const ir::Module& image, const kernel::KernelInfo& info,
                workload::Workload& wl, const MeasureConfig& config)
{
    return measureWorkload(
        std::make_shared<const uarch::DecodedModule>(image), info, wl,
        config);
}

Measurement
measureWorkload(std::shared_ptr<const uarch::DecodedModule> decoded,
                const kernel::KernelInfo& info, workload::Workload& wl,
                const MeasureConfig& config)
{
    uarch::Simulator sim(std::move(decoded), config.params);
    workload::KernelHandle handle(sim, info);
    handle.boot();
    wl.setup(handle);
    for (uint32_t i = 0; i < config.warmup_iters; ++i)
        wl.iteration(handle, i);

    sim.clearStats();
    for (uint32_t i = 0; i < config.measure_iters; ++i)
        wl.iteration(handle, config.warmup_iters + i);

    Measurement m;
    m.stats = sim.stats();
    const double cycles_per_iter =
        static_cast<double>(m.stats.cycles) /
        static_cast<double>(config.measure_iters);
    m.latency_us =
        cycles_per_iter / static_cast<double>(config.params.cycles_per_us);
    // Simulated clock: cycles_per_us * 1e6 cycles per second.
    m.ops_per_sec =
        cycles_per_iter > 0
            ? static_cast<double>(config.params.cycles_per_us) * 1e6 /
                  cycles_per_iter
            : 0;
    return m;
}

profile::EdgeProfile
collectProfile(const ir::Module& linked, const kernel::KernelInfo& info,
               const std::vector<std::unique_ptr<workload::Workload>>& suite,
               uint32_t iters_per_test, uint32_t repeats)
{
    profile::EdgeProfile profile;
    // One decode serves every profiling simulator below.
    const auto decoded =
        std::make_shared<const uarch::DecodedModule>(linked);
    for (uint32_t round = 0; round < repeats; ++round) {
        // Fresh kernel state per test so descriptor/socket tables do
        // not leak across setups (each LMBench binary is a process).
        for (const auto& wl : suite) {
            profile::EdgeProfile test_profile;
            uarch::Simulator sim(decoded);
            sim.setTimingEnabled(false);
            sim.setProfiler(&test_profile);
            workload::KernelHandle handle(sim, info);
            handle.boot();
            wl->setup(handle);
            for (uint32_t i = 0; i < iters_per_test; ++i)
                wl->iteration(handle, i);
            profile.merge(test_profile);
        }
    }
    return profile;
}

} // namespace pibe::core
