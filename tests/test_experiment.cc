/** @file Tests for the measurement harness (pibe::core::experiment). */
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "kernel/kernel.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace pibe {
namespace {

kernel::KernelConfig
testConfig()
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = 8;
    return cfg;
}

class ExperimentTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        image_ = new kernel::KernelImage(
            kernel::buildKernel(testConfig()));
    }

    static void
    TearDownTestSuite()
    {
        delete image_;
        image_ = nullptr;
    }

    static kernel::KernelImage* image_;
};

kernel::KernelImage* ExperimentTest::image_ = nullptr;

TEST_F(ExperimentTest, LatencyAndThroughputAreConsistent)
{
    auto wl = workload::makeLmbenchTest("null");
    core::MeasureConfig cfg;
    cfg.warmup_iters = 20;
    cfg.measure_iters = 60;
    auto m = core::measureWorkload(image_->module, image_->info, *wl,
                                   cfg);
    // ops/sec * latency(us) == 1e6 by construction.
    EXPECT_NEAR(m.ops_per_sec * m.latency_us, 1e6, 1.0);
}

TEST_F(ExperimentTest, MoreWorkMeansMoreLatency)
{
    core::MeasureConfig cfg;
    cfg.warmup_iters = 20;
    cfg.measure_iters = 60;
    auto null_wl = workload::makeLmbenchTest("null");
    auto fork_wl = workload::makeLmbenchTest("fork/exec");
    double null_lat = core::measureWorkload(image_->module,
                                            image_->info, *null_wl, cfg)
                          .latency_us;
    double fork_lat = core::measureWorkload(image_->module,
                                            image_->info, *fork_wl, cfg)
                          .latency_us;
    EXPECT_GT(fork_lat, 3 * null_lat);
}

TEST_F(ExperimentTest, WarmupReducesMeasuredLatency)
{
    auto wl_cold = workload::makeLmbenchTest("read");
    auto wl_warm = workload::makeLmbenchTest("read");
    core::MeasureConfig cold;
    cold.warmup_iters = 0;
    cold.measure_iters = 5;
    core::MeasureConfig warm;
    warm.warmup_iters = 200;
    warm.measure_iters = 5;
    double cold_lat = core::measureWorkload(image_->module,
                                            image_->info, *wl_cold, cold)
                          .latency_us;
    double warm_lat = core::measureWorkload(image_->module,
                                            image_->info, *wl_warm, warm)
                          .latency_us;
    EXPECT_GT(cold_lat, warm_lat); // predictors and i-cache trained
}

TEST_F(ExperimentTest, MeasureSuiteCoversAllTests)
{
    auto suite = workload::makeLmbenchSuite();
    core::MeasureConfig cfg;
    cfg.warmup_iters = 5;
    cfg.measure_iters = 10;
    std::map<std::string, core::Measurement> results;
    for (const auto& wl : suite)
        results[wl->name()] =
            core::measureWorkload(image_->module, image_->info, *wl, cfg);
    EXPECT_EQ(results.size(), suite.size());
    for (const auto& [name, m] : results) {
        EXPECT_GT(m.latency_us, 0.0) << name;
        EXPECT_GT(m.stats.instructions, 0u) << name;
    }
}

TEST_F(ExperimentTest, BuildReportFinalProfileReflectsPromotion)
{
    auto suite = workload::makeLmbenchSuite();
    auto profile =
        core::collectProfile(image_->module, image_->info, suite, 20);
    const uint64_t indirect_before = profile.totalIndirectWeight();
    core::BuildReport report;
    core::buildImage(image_->module, profile,
                     core::OptConfig::icpOnly(0.99999),
                     harden::DefenseConfig::retpolinesOnly(), &report);
    // Promotion moved weight from indirect to direct edges in the
    // working profile; the input profile is untouched.
    EXPECT_EQ(profile.totalIndirectWeight(), indirect_before);
    EXPECT_LT(report.final_profile.totalIndirectWeight(),
              indirect_before);
    EXPECT_GT(report.final_profile.totalDirectWeight(),
              profile.totalDirectWeight());
}

TEST_F(ExperimentTest, BuildImageDoesNotMutateInputModule)
{
    auto suite = workload::makeLmbenchSuite();
    auto profile =
        core::collectProfile(image_->module, image_->info, suite, 15);
    const size_t funcs = image_->module.numFunctions();
    const ir::SiteId bound = image_->module.siteIdBound();
    core::buildImage(image_->module, profile,
                     core::OptConfig::icpAndInline(0.999),
                     harden::DefenseConfig::all());
    EXPECT_EQ(image_->module.numFunctions(), funcs);
    EXPECT_EQ(image_->module.siteIdBound(), bound);
    // And the original still runs unhardened.
    uarch::Simulator sim(image_->module);
    sim.setTimingEnabled(false);
    workload::KernelHandle handle(sim, image_->info);
    handle.boot();
    EXPECT_EQ(handle.syscall(kernel::sysno::kNull), 1);
}

} // namespace
} // namespace pibe
