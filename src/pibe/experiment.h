/**
 * @file
 * Measurement harness shared by the benchmark binaries and examples:
 * profiling runs, latency/throughput measurement, and overhead math.
 */
#ifndef PIBE_PIBE_EXPERIMENT_H_
#define PIBE_PIBE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "profile/edge_profile.h"
#include "uarch/cost_model.h"
#include "uarch/simulator.h"
#include "workload/workload.h"

namespace pibe::core {

/** Knobs of one latency/throughput measurement. */
struct MeasureConfig
{
    uint32_t warmup_iters = 150; ///< Train predictors and i-cache.
    uint32_t measure_iters = 400;
    uarch::CostParams params;
};

/** Result of measuring one workload on one image. */
struct Measurement
{
    double latency_us = 0;       ///< Cycles per iteration / 1000.
    double ops_per_sec = 0;      ///< Iterations per simulated second.
    uarch::RunStats stats;       ///< Counters over the measured phase.
};

/**
 * Boot the kernel image, run the workload's setup and warmup, then
 * measure `measure_iters` iterations.
 */
Measurement measureWorkload(const ir::Module& image,
                            const kernel::KernelInfo& info,
                            workload::Workload& wl,
                            const MeasureConfig& config = {});

/**
 * Same, on a pre-decoded image: decoding is paid by the caller, once,
 * and shared across every simulator built from it (the engine decodes
 * each image a single time for all of its measurement jobs).
 */
Measurement
measureWorkload(std::shared_ptr<const uarch::DecodedModule> decoded,
                const kernel::KernelInfo& info, workload::Workload& wl,
                const MeasureConfig& config = {});

/**
 * Phase-1 profiling run: execute every workload (setup + iterations)
 * with the edge profiler attached; timing is irrelevant and disabled.
 * `repeats` models the paper's 11 profiling rounds (counts merge).
 */
profile::EdgeProfile
collectProfile(const ir::Module& linked, const kernel::KernelInfo& info,
               const std::vector<std::unique_ptr<workload::Workload>>& suite,
               uint32_t iters_per_test = 300, uint32_t repeats = 1);

} // namespace pibe::core

#endif // PIBE_PIBE_EXPERIMENT_H_
