/**
 * @file
 * Tests for the experiment runtime (src/runtime) and the engine built
 * on it: thread pool, DAG scheduler, digests, artifact cache, and the
 * bit-identical parallel-vs-serial guarantee of runExperiments().
 *
 * All tests are prefixed Runtime* so CI can run exactly this suite
 * under ThreadSanitizer (--gtest_filter='Runtime*').
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "pibe/engine.h"
#include "runtime/artifact_cache.h"
#include "runtime/digest.h"
#include "runtime/job_graph.h"
#include "runtime/thread_pool.h"

namespace pibe {
namespace {

using runtime::ArtifactCache;
using runtime::Digest;
using runtime::JobContext;
using runtime::JobGraph;
using runtime::ThreadPool;

// ---------------------------------------------------------------------
// ThreadPool

TEST(RuntimeThreadPool, StressManyTasksAllRun)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 500; ++i) {
        futures.push_back(pool.submit([&counter, i] {
            counter.fetch_add(1, std::memory_order_relaxed);
            return i * 2;
        }));
    }
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(futures[i].get(), i * 2);
    EXPECT_EQ(counter.load(), 500);
    EXPECT_EQ(pool.tasksRun(), 500u);
}

TEST(RuntimeThreadPool, ShutdownDrainsQueuedWork)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit(
                [&counter] { counter.fetch_add(1); });
        pool.shutdown(); // Must finish everything already queued.
        EXPECT_EQ(counter.load(), 100);
        pool.shutdown(); // Idempotent.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(RuntimeThreadPool, ZeroThreadsClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(RuntimeThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(RuntimeThreadPool, StopDrainRunsEverythingSubmitted)
{
    std::atomic<int> counter{0};
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(
            pool.submit([&counter] { counter.fetch_add(1); }));
    pool.stop(ThreadPool::StopMode::kDrain);
    EXPECT_EQ(counter.load(), 200);
    EXPECT_EQ(pool.tasksRun(), 200u);
    EXPECT_EQ(pool.cancelledTasks(), 0u);
    for (auto& f : futures)
        EXPECT_NO_THROW(f.get());
}

TEST(RuntimeThreadPool, StopCancelDropsQueuedWork)
{
    // One worker blocked on a gate guarantees a backlog; kCancel must
    // account for every queued task (run + cancelled = submitted) and
    // break the dropped tasks' futures instead of leaving them hung.
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    ThreadPool pool(1);
    auto blocker = pool.submit([&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
    });
    std::vector<std::future<void>> queued;
    for (int i = 0; i < 50; ++i)
        queued.push_back(pool.submit([] {}));
    // stop(kCancel) clears the queue before joining workers, so the
    // cancel count reaches 50 while the blocker still holds the one
    // worker — then we release it and the join completes.
    std::thread stopper(
        [&] { pool.stop(ThreadPool::StopMode::kCancel); });
    while (pool.cancelledTasks() != 50)
        std::this_thread::yield();
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    stopper.join();
    blocker.get();
    EXPECT_EQ(pool.tasksRun(), 1u);
    EXPECT_EQ(pool.cancelledTasks(), 50u);
    EXPECT_EQ(pool.tasksRun() + pool.cancelledTasks(),
              pool.tasksSubmitted());
    size_t broken = 0;
    for (auto& f : queued) {
        try {
            f.get();
            ADD_FAILURE() << "cancelled future did not break";
        } catch (const std::future_error& e) {
            EXPECT_EQ(e.code(),
                      std::make_error_code(
                          std::future_errc::broken_promise));
            ++broken;
        }
    }
    EXPECT_EQ(broken, 50u);
    pool.stop(ThreadPool::StopMode::kCancel); // Idempotent.
}

// ---------------------------------------------------------------------
// JobGraph

TEST(RuntimeJobGraph, DiamondRespectsDependencyOrder)
{
    // a -> {b, c} -> d, run many times to shake out races.
    for (int round = 0; round < 20; ++round) {
        JobGraph graph;
        std::mutex mu;
        std::vector<std::string> order;
        auto record = [&](const char* name) {
            std::lock_guard<std::mutex> lock(mu);
            order.emplace_back(name);
        };
        auto a = graph.add("a", [&](const JobContext&) { record("a"); });
        auto b = graph.add("b", [&](const JobContext&) { record("b"); },
                           {a});
        auto c = graph.add("c", [&](const JobContext&) { record("c"); },
                           {a});
        graph.add("d", [&](const JobContext&) { record("d"); }, {b, c});

        ThreadPool pool(4);
        graph.run(pool);

        ASSERT_EQ(order.size(), 4u);
        EXPECT_EQ(order.front(), "a");
        EXPECT_EQ(order.back(), "d");
    }
}

TEST(RuntimeJobGraph, ChainRunsInSequence)
{
    JobGraph graph;
    std::vector<int> order;
    runtime::JobId prev = graph.add(
        "j0", [&](const JobContext&) { order.push_back(0); });
    for (int i = 1; i < 10; ++i) {
        prev = graph.add(
            "j" + std::to_string(i),
            [&, i](const JobContext&) { order.push_back(i); }, {prev});
    }
    ThreadPool pool(4);
    graph.run(pool);
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(RuntimeJobGraph, FailureSkipsDependentsAndRethrows)
{
    JobGraph graph;
    std::atomic<bool> leaf_ran{false};
    std::atomic<bool> independent_ran{false};
    auto bad = graph.add("bad", [&](const JobContext&) {
        throw std::runtime_error("job failed");
    });
    auto mid = graph.add("mid", [&](const JobContext&) {}, {bad});
    graph.add("leaf", [&](const JobContext&) { leaf_ran = true; },
              {mid});
    graph.add("independent",
              [&](const JobContext&) { independent_ran = true; });

    ThreadPool pool(2);
    EXPECT_THROW(graph.run(pool), std::runtime_error);
    EXPECT_FALSE(leaf_ran.load());
    EXPECT_TRUE(independent_ran.load());

    const auto& metrics = graph.metrics();
    ASSERT_EQ(metrics.size(), 4u);
    EXPECT_TRUE(metrics[0].ran);   // bad ran (and threw).
    EXPECT_FALSE(metrics[1].ran);  // mid skipped.
    EXPECT_FALSE(metrics[2].ran);  // leaf skipped.
    EXPECT_TRUE(metrics[3].ran);   // independent unaffected.
}

TEST(RuntimeJobGraph, SeedDerivesFromJobName)
{
    JobGraph graph;
    uint64_t seed_x = 0, seed_y = 0;
    graph.add("x", [&](const JobContext& ctx) { seed_x = ctx.seed; });
    graph.add("y", [&](const JobContext& ctx) { seed_y = ctx.seed; });
    ThreadPool pool(2);
    graph.run(pool);
    EXPECT_EQ(seed_x, Digest().add("x").value());
    EXPECT_EQ(seed_y, Digest().add("y").value());
    EXPECT_NE(seed_x, seed_y);
}

// ---------------------------------------------------------------------
// Digest

TEST(RuntimeDigest, StableAndSensitiveToEveryField)
{
    auto key = [](const std::string& s, uint64_t n, double d, bool b) {
        return Digest().add(s).add(n).add(d).add(b).hex();
    };
    const std::string base = key("kernel", 42, 1.5, true);
    EXPECT_EQ(base, key("kernel", 42, 1.5, true)); // Deterministic.
    EXPECT_EQ(base.size(), 32u);

    std::set<std::string> keys = {
        base,
        key("kernel2", 42, 1.5, true),
        key("kernel", 43, 1.5, true),
        key("kernel", 42, 1.5000001, true),
        key("kernel", 42, 1.5, false),
    };
    EXPECT_EQ(keys.size(), 5u); // Any field change -> new key.
}

TEST(RuntimeDigest, AdjacentFieldsCannotAlias)
{
    // Length prefixing: "ab"+"c" must differ from "a"+"bc".
    EXPECT_NE(Digest().add("ab").add("c").hex(),
              Digest().add("a").add("bc").hex());
    // Field boundaries: (1, 256) vs (256, 1).
    EXPECT_NE(Digest().add(uint64_t{1}).add(uint64_t{256}).hex(),
              Digest().add(uint64_t{256}).add(uint64_t{1}).hex());
}

TEST(RuntimeDigest, DoubleUsesBitPattern)
{
    EXPECT_NE(Digest().add(0.0).hex(), Digest().add(-0.0).hex());
}

// ---------------------------------------------------------------------
// ArtifactCache

TEST(RuntimeArtifactCache, MemoryRoundTripAndStats)
{
    ArtifactCache cache;
    EXPECT_FALSE(cache.get("k1").has_value());
    cache.put("k1", "value-1");
    auto hit = cache.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "value-1");

    auto stats = cache.stats();
    EXPECT_EQ(stats.mem_hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.puts, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(RuntimeArtifactCache, DiskTierSurvivesProcessRestart)
{
    const std::string dir =
        "/tmp/pibe_test_cache_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    {
        ArtifactCache producer;
        producer.setDiskDir(dir);
        producer.put("deadbeef", "artifact bytes\nline 2\n");
    }
    {
        // Fresh instance = empty memory tier; must hit disk.
        ArtifactCache consumer;
        consumer.setDiskDir(dir);
        auto hit = consumer.get("deadbeef");
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, "artifact bytes\nline 2\n");
        EXPECT_EQ(consumer.stats().disk_hits, 1u);
        // Promoted to memory: second lookup is a memory hit.
        consumer.get("deadbeef");
        EXPECT_EQ(consumer.stats().mem_hits, 1u);
        EXPECT_FALSE(consumer.get("unknown-key").has_value());
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Engine determinism: parallel + cached == serial, byte for byte.

core::ExperimentPlan
tinyPlan()
{
    core::ExperimentPlan plan;
    plan.kernel.num_drivers = 6;
    plan.profile_base_iters = 2;
    plan.measure.warmup_iters = 5;
    plan.measure.measure_iters = 20;
    plan.addImage("base", core::OptConfig::none(),
                  harden::DefenseConfig::none());
    plan.addImage("hard", core::OptConfig::icpOnly(0.99),
                  harden::DefenseConfig::retpolinesOnly());
    for (const char* image : {"base", "hard"}) {
        plan.measureOn(image, "null");
        plan.measureOn(image, "read");
    }
    return plan;
}

/** Exact dump: doubles as bit patterns, so == means bit-identical. */
std::string
dumpResults(const core::ExperimentResults& results)
{
    std::ostringstream os;
    for (const auto& [image, runs] : results.measurements) {
        for (const auto& [wl, m] : runs) {
            os << image << "/" << wl << " "
               << std::bit_cast<uint64_t>(m.latency_us) << " "
               << std::bit_cast<uint64_t>(m.ops_per_sec) << " "
               << m.stats.cycles << " " << m.stats.instructions << "\n";
        }
    }
    return os.str();
}

TEST(RuntimeEngine, ParallelCachedBitIdenticalToSerial)
{
    const core::ExperimentPlan plan = tinyPlan();

    core::EngineOptions serial;
    serial.jobs = 1;
    serial.use_cache = false;
    const std::string golden = dumpResults(runExperiments(plan, serial));

    core::EngineOptions parallel;
    parallel.jobs = 4;
    parallel.use_cache = true;
    auto par = runExperiments(plan, parallel);
    EXPECT_EQ(dumpResults(par), golden);
    EXPECT_EQ(par.jobs.size(), 2u + plan.images.size() + plan.runs.size());
}

TEST(RuntimeEngine, WarmDiskCacheReproducesColdRun)
{
    const std::string dir =
        "/tmp/pibe_test_engine_cache_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    const core::ExperimentPlan plan = tinyPlan();

    core::EngineOptions opts;
    opts.jobs = 2;
    opts.cache_dir = dir;

    auto cold = runExperiments(plan, opts);
    EXPECT_EQ(cold.cache.hits(), 0u);
    EXPECT_GT(cold.cache.puts, 0u);

    auto warm = runExperiments(plan, opts);
    EXPECT_EQ(dumpResults(warm), dumpResults(cold));
    // Every stage memoized: kernel, profile, images, measurements.
    EXPECT_EQ(warm.cache.hits(),
              2u + plan.images.size() + plan.runs.size());
    EXPECT_EQ(warm.cache.misses, 0u);
    std::filesystem::remove_all(dir);
}

TEST(RuntimeEngine, CacheKeyChangesWithAnyConfigField)
{
    // Re-measuring with a different measure config must not reuse the
    // cached measurement (the run count changes the cycle totals).
    const std::string dir =
        "/tmp/pibe_test_engine_keys_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    core::EngineOptions opts;
    opts.jobs = 2;
    opts.cache_dir = dir;

    core::ExperimentPlan plan = tinyPlan();
    auto first = runExperiments(plan, opts);

    core::ExperimentPlan changed = tinyPlan();
    changed.measure.measure_iters += 1;
    auto second = runExperiments(changed, opts);
    // Kernel/profile/images hit; all four measurements re-run.
    EXPECT_EQ(second.cache.misses,
              static_cast<uint64_t>(changed.runs.size()));
    EXPECT_NE(dumpResults(second), dumpResults(first));
    std::filesystem::remove_all(dir);
}

TEST(RuntimeEngine, ImageKeyCoversEveryIcpField)
{
    // Each of these fields changes the image buildImage returns, so
    // two plans differing only in one must not share a cached image.
    const core::OptConfig base;
    const harden::DefenseConfig defense = harden::DefenseConfig::all();
    const std::string base_key =
        core::imageCacheKey("kernel", "profile", base, defense);

    core::OptConfig capped = base;
    capped.icp_max_targets = 2;
    core::OptConfig total = base;
    total.icp_total_promotion = true;
    core::OptConfig total_bound = base;
    total_bound.icp_total_promotion_max_targets = 4;
    for (const core::OptConfig& opt : {capped, total, total_bound}) {
        EXPECT_NE(core::imageCacheKey("kernel", "profile", opt, defense),
                  base_key);
    }
}

} // namespace
} // namespace pibe
