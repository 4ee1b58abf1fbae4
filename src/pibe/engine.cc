#include "pibe/engine.h"

#include <bit>
#include <memory>
#include <sstream>

#include "ir/parser.h"
#include "ir/printer.h"
#include "profile/serialize.h"
#include "runtime/digest.h"
#include "runtime/thread_pool.h"
#include "support/logging.h"
#include "support/stats.h"
#include "support/timer.h"
#include "workload/workload.h"

namespace pibe::core {

namespace {

// ---------------------------------------------------------------------
// Cache keys. Every configuration field that can change an artifact is
// hashed explicitly; bump the stage salt when a format changes.

void
hashKernelConfig(runtime::Digest& d, const kernel::KernelConfig& cfg)
{
    d.add("pibe-kernel-v1")
        .add(cfg.seed)
        .add(cfg.num_drivers)
        .add(cfg.helpers_per_driver)
        .add(cfg.kmem_slots);
}

// `sandwich` is left out: it audits the build and never changes the
// image it returns.
void
hashOptConfig(runtime::Digest& d, const OptConfig& opt)
{
    d.add(opt.enable_icp)
        .add(opt.icp_budget)
        .add(opt.icp_max_targets)
        .add(opt.icp_total_promotion)
        .add(opt.icp_total_promotion_max_targets)
        .add(static_cast<int64_t>(opt.inliner))
        .add(opt.inline_budget)
        .add(opt.lax_heuristics)
        .add(opt.lax_budget)
        .add(opt.rule2_caller_threshold)
        .add(opt.rule3_callee_threshold);
}

void
hashDefenseConfig(runtime::Digest& d, const harden::DefenseConfig& def)
{
    d.add(def.retpoline)
        .add(def.lvi_cfi)
        .add(def.ret_retpoline)
        .add(def.jump_switches);
}

void
hashCostParams(runtime::Digest& d, const uarch::CostParams& p)
{
    d.add(p.cost_simple)
        .add(p.cost_free)
        .add(p.cost_mem)
        .add(p.cost_dcall)
        .add(p.cost_arg)
        .add(p.cost_br)
        .add(p.cost_ret_predicted)
        .add(p.cost_ret_mispredict)
        .add(p.cost_icall_predicted)
        .add(p.cost_icall_mispredict)
        .add(p.cost_condbr_predicted)
        .add(p.cost_condbr_mispredict)
        .add(p.cost_retpoline)
        .add(p.cost_lvi_fwd)
        .add(p.cost_fenced_retpoline)
        .add(p.cost_ret_retpoline)
        .add(p.cost_lvi_ret)
        .add(p.cost_fenced_ret)
        .add(p.cost_js_check)
        .add(p.cost_js_patch)
        .add(p.js_max_inline_targets)
        .add(p.js_learn_period)
        .add(p.js_learn_duration)
        .add(p.cost_external)
        .add(p.icache_bytes)
        .add(p.icache_assoc)
        .add(p.icache_line)
        .add(p.icache_miss_penalty)
        .add(p.btb_entries)
        .add(p.rsb_entries)
        .add(p.pht_entries)
        .add(p.eibrs)
        .add(p.cost_eibrs_branch)
        .add(p.rsb_refill_on_entry)
        .add(p.cost_rsb_refill)
        .add(p.cycles_per_us);
}

void
hashMeasureConfig(runtime::Digest& d, const MeasureConfig& cfg)
{
    d.add(cfg.warmup_iters).add(cfg.measure_iters);
    hashCostParams(d, cfg.params);
}

// ---------------------------------------------------------------------
// Measurement artifacts. Doubles are stored as bit patterns so the
// cache-hit path reproduces the computed values exactly.

std::string
serializeMeasurement(const Measurement& m)
{
    std::ostringstream os;
    os << "pibe-measurement v2\n";
    os << "latency_bits " << std::bit_cast<uint64_t>(m.latency_us)
       << "\n";
    os << "ops_bits " << std::bit_cast<uint64_t>(m.ops_per_sec) << "\n";
    const uarch::RunStats& s = m.stats;
    os << "stats " << s.cycles << " " << s.instructions << " "
       << s.direct_calls << " " << s.indirect_calls << " " << s.returns
       << " " << s.cond_branches << " " << s.switches << " "
       << s.icache_misses << " " << s.btb_mispredicts << " "
       << s.rsb_mispredicts << " " << s.pht_mispredicts << " "
       << s.thunk_execs << " " << s.js_hits << " " << s.js_misses << " "
       << s.js_patches << " " << s.js_learning << " "
       << s.max_call_depth << " " << s.peak_frame_slots << "\n";
    // v2: per-family superinstruction execution counts (decoded-path
    // fusion coverage; zero when the measurement ran unfused).
    os << "fused";
    for (const uint64_t f : s.fused)
        os << " " << f;
    os << "\n";
    return os.str();
}

Measurement
parseMeasurement(const std::string& text)
{
    std::istringstream is(text);
    std::string header;
    std::getline(is, header);
    if (header != "pibe-measurement v2")
        PIBE_FATAL("bad measurement artifact header: '", header, "'");
    Measurement m;
    std::string tag;
    uint64_t bits = 0;
    if (!(is >> tag >> bits) || tag != "latency_bits")
        PIBE_FATAL("bad measurement artifact (latency)");
    m.latency_us = std::bit_cast<double>(bits);
    if (!(is >> tag >> bits) || tag != "ops_bits")
        PIBE_FATAL("bad measurement artifact (ops)");
    m.ops_per_sec = std::bit_cast<double>(bits);
    uarch::RunStats& s = m.stats;
    if (!(is >> tag >> s.cycles >> s.instructions >> s.direct_calls >>
          s.indirect_calls >> s.returns >> s.cond_branches >>
          s.switches >> s.icache_misses >> s.btb_mispredicts >>
          s.rsb_mispredicts >> s.pht_mispredicts >> s.thunk_execs >>
          s.js_hits >> s.js_misses >> s.js_patches >> s.js_learning >>
          s.max_call_depth >> s.peak_frame_slots) ||
        tag != "stats")
        PIBE_FATAL("bad measurement artifact (stats)");
    if (!(is >> tag) || tag != "fused")
        PIBE_FATAL("bad measurement artifact (fused)");
    for (uint64_t& f : s.fused) {
        if (!(is >> f))
            PIBE_FATAL("bad measurement artifact (fused counts)");
    }
    return m;
}

std::unique_ptr<workload::Workload>
makeWorkloadByName(const std::string& name)
{
    if (name == "nginx")
        return workload::makeNginxWorkload();
    if (name == "apache")
        return workload::makeApacheWorkload();
    if (name == "dbench")
        return workload::makeDbenchWorkload();
    return workload::makeLmbenchTest(name);
}

} // namespace

// ---------------------------------------------------------------------
// Plan / results helpers.

const std::string&
ExperimentPlan::addImage(std::string name, const OptConfig& opt,
                         const harden::DefenseConfig& defense)
{
    images.push_back({std::move(name), opt, defense});
    return images.back().name;
}

void
ExperimentPlan::measureOn(const std::string& image,
                          const std::string& workload)
{
    runs.push_back({image, workload});
}

void
ExperimentPlan::measureLmbenchOn(const std::string& image)
{
    for (const auto& wl : workload::makeLmbenchSuite())
        runs.push_back({image, wl->name()});
}

const Measurement&
ExperimentResults::at(const std::string& image,
                      const std::string& workload) const
{
    auto img = measurements.find(image);
    PIBE_ASSERT(img != measurements.end(), "no image '", image, "'");
    auto run = img->second.find(workload);
    PIBE_ASSERT(run != img->second.end(), "no measurement '", workload,
                "' on image '", image, "'");
    return run->second;
}

std::map<std::string, double>
ExperimentResults::latencies(const std::string& image) const
{
    auto img = measurements.find(image);
    PIBE_ASSERT(img != measurements.end(), "no image '", image, "'");
    std::map<std::string, double> out;
    for (const auto& [name, m] : img->second)
        out[name] = m.latency_us;
    return out;
}

// ---------------------------------------------------------------------
// The canonical training profile (previously bench-local).

profile::EdgeProfile
collectLmbenchProfile(const ir::Module& kernel,
                      const kernel::KernelInfo& info,
                      uint32_t base_iters)
{
    // LMBench runs each test for a fixed wall time, so cheap tests
    // accumulate far more iterations; the multipliers reproduce that
    // skew (roughly inverse to each test's latency).
    static const std::map<std::string, double> kItersScale = {
        {"null", 16},        {"read", 8},       {"write", 8},
        {"open", 4},         {"stat", 6},       {"fstat", 10},
        {"af_unix", 4},      {"fork/exit", 1},  {"fork/exec", 0.6},
        {"fork/shell", 0.4}, {"pipe", 4},       {"select_file", 3},
        {"select_tcp", 2},   {"tcp_conn", 1.5}, {"udp", 4},
        {"tcp", 4},          {"mmap", 3},       {"page_fault", 8},
        {"sig_install", 12}, {"sig_dispatch", 8},
    };
    profile::EdgeProfile merged;
    for (auto& wl : workload::makeLmbenchSuite()) {
        std::vector<std::unique_ptr<workload::Workload>> one;
        one.push_back(workload::makeLmbenchTest(wl->name()));
        const uint32_t iters = std::max<uint32_t>(
            1, static_cast<uint32_t>(base_iters *
                                     kItersScale.at(wl->name())));
        merged.merge(collectProfile(kernel, info, one, iters));
    }
    return merged;
}

std::string
kernelTextCached(const kernel::KernelConfig& cfg,
                 runtime::ArtifactCache* cache)
{
    runtime::Digest d;
    hashKernelConfig(d, cfg);
    if (cache) {
        if (std::optional<std::string> text = cache->get(d.hex()))
            return *text;
    }
    kernel::KernelImage k = kernel::buildKernel(cfg);
    std::string text = ir::printModule(k.module);
    if (cache)
        cache->put(d.hex(), text);
    return text;
}

std::string
profileTextCached(const std::string& kernel_text,
                  const ir::Module& kernel,
                  const kernel::KernelInfo& info, uint32_t base_iters,
                  runtime::ArtifactCache* cache)
{
    runtime::Digest d;
    d.add("pibe-profile-v1").add(kernel_text).add(base_iters);
    if (cache) {
        if (std::optional<std::string> text = cache->get(d.hex()))
            return *text;
    }
    profile::EdgeProfile p =
        collectLmbenchProfile(kernel, info, base_iters);
    std::string text = profile::serializeProfile(kernel, p);
    if (cache)
        cache->put(d.hex(), text);
    return text;
}

std::string
imageCacheKey(const std::string& kernel_text,
              const std::string& profile_text, const OptConfig& opt,
              const harden::DefenseConfig& defense)
{
    runtime::Digest d;
    d.add("pibe-image-v1").add(kernel_text).add(profile_text);
    hashOptConfig(d, opt);
    hashDefenseConfig(d, defense);
    return d.hex();
}

std::string
imageTextCached(const std::string& kernel_text,
                const ir::Module& kernel,
                const std::string& profile_text,
                const profile::EdgeProfile& profile,
                const OptConfig& opt,
                const harden::DefenseConfig& defense,
                runtime::ArtifactCache* cache)
{
    const std::string key =
        imageCacheKey(kernel_text, profile_text, opt, defense);
    if (cache) {
        if (std::optional<std::string> text = cache->get(key))
            return *text;
    }
    ir::Module img = buildImage(kernel, profile, opt, defense);
    std::string text = ir::printModule(img);
    if (cache)
        cache->put(key, text);
    return text;
}

Measurement
measureWorkloadCached(const std::string& image_text,
                      std::shared_ptr<const uarch::DecodedModule> decoded,
                      const kernel::KernelInfo& info,
                      const std::string& workload_name,
                      const MeasureConfig& config,
                      runtime::ArtifactCache* cache)
{
    runtime::Digest d;
    // v2: measurements run on the pre-decoded stream; its format
    // version invalidates cached results if the encoding ever changes
    // observable stats.
    d.add("pibe-measure-v2")
        .add(uarch::DecodedModule::kFormatVersion)
        .add(image_text)
        .add(workload_name);
    hashMeasureConfig(d, config);
    if (cache) {
        if (std::optional<std::string> text = cache->get(d.hex()))
            return parseMeasurement(*text);
    }
    auto wl = makeWorkloadByName(workload_name);
    Measurement m =
        measureWorkload(std::move(decoded), info, *wl, config);
    if (cache)
        cache->put(d.hex(), serializeMeasurement(m));
    return m;
}

// ---------------------------------------------------------------------
// The engine.

ExperimentResults
runExperiments(const ExperimentPlan& plan, const EngineOptions& opts)
{
    const Stopwatch wall;

    runtime::ArtifactCache cache;
    if (opts.use_cache && !opts.cache_dir.empty())
        cache.setDiskDir(opts.cache_dir);
    runtime::ArtifactCache* cachep = opts.use_cache ? &cache : nullptr;

    // Shared pipeline state. Each field is written by exactly one job
    // and read only by its dependents (the graph publishes writes).
    struct Shared
    {
        std::string kernel_text;
        std::unique_ptr<ir::Module> kernel;
        kernel::KernelInfo info;
        std::string profile_text;
        profile::EdgeProfile profile;
    } shared;

    struct BuiltImage
    {
        std::string text;
        std::unique_ptr<ir::Module> module;
        kernel::KernelInfo info;
        /** Decoded once in the image job, shared by every measurement
         *  job on this image (decode cost is per image, not per run). */
        std::shared_ptr<const uarch::DecodedModule> decoded;
    };
    // Pre-create every slot so parallel jobs never mutate map
    // structure, only their own entries.
    std::map<std::string, BuiltImage> images;
    for (const auto& spec : plan.images) {
        PIBE_ASSERT(images.find(spec.name) == images.end(),
                    "duplicate image name '", spec.name, "'");
        images[spec.name];
    }

    ExperimentResults results;
    for (const auto& run : plan.runs) {
        PIBE_ASSERT(images.find(run.image) != images.end(),
                    "measurement references unknown image '", run.image,
                    "'");
        auto [it, inserted] =
            results.measurements[run.image].try_emplace(run.workload);
        (void)it;
        PIBE_ASSERT(inserted, "duplicate measurement '", run.workload,
                    "' on image '", run.image, "'");
    }

    runtime::JobGraph graph;

    const runtime::JobId kernel_job = graph.add(
        "kernel", [&](const runtime::JobContext&) {
            // Always run from the parsed canonical text so cache hits
            // and misses execute the exact same module.
            shared.kernel_text = kernelTextCached(plan.kernel, cachep);
            shared.kernel = std::make_unique<ir::Module>(
                ir::parseModule(shared.kernel_text));
            shared.info = kernel::kernelInfoFromModule(*shared.kernel);
        });

    const runtime::JobId profile_job = graph.add(
        "profile",
        [&](const runtime::JobContext&) {
            shared.profile_text = profileTextCached(
                shared.kernel_text, *shared.kernel, shared.info,
                plan.profile_base_iters, cachep);
            shared.profile =
                profile::liftProfile(*shared.kernel,
                                     shared.profile_text);
        },
        {kernel_job});

    std::map<std::string, runtime::JobId> image_jobs;
    for (const auto& spec : plan.images) {
        image_jobs[spec.name] = graph.add(
            "image:" + spec.name,
            [&, spec, slot = &images[spec.name]](
                const runtime::JobContext&) {
                slot->text = imageTextCached(
                    shared.kernel_text, *shared.kernel,
                    shared.profile_text, shared.profile, spec.opt,
                    spec.defense, cachep);
                slot->module = std::make_unique<ir::Module>(
                    ir::parseModule(slot->text));
                slot->info =
                    kernel::kernelInfoFromModule(*slot->module);
                slot->decoded =
                    std::make_shared<const uarch::DecodedModule>(
                        *slot->module);
            },
            {profile_job});
    }

    for (const auto& run : plan.runs) {
        graph.add(
            "measure:" + run.image + "/" + run.workload,
            [&, run, img = &images.at(run.image),
             out = &results.measurements.at(run.image).at(run.workload)](
                const runtime::JobContext&) {
                *out = measureWorkloadCached(
                    img->text, img->decoded, img->info, run.workload,
                    plan.measure, opts.use_cache ? &cache : nullptr);
            },
            {image_jobs.at(run.image)});
    }

    runtime::ThreadPool pool(std::max(1u, opts.jobs));
    graph.run(pool);
    pool.shutdown();

    results.cache = cache.stats();
    results.jobs = graph.metrics();
    results.wall_ms = wall.ms();
    return results;
}

Table
engineMetricsTable(const ExperimentResults& results)
{
    Table t({"Job", "queue wait (ms)", "run (ms)"});
    for (const auto& job : results.jobs) {
        t.addRow({job.name,
                  job.ran ? fixedStr(job.queue_wait_ms, 2) : "-",
                  job.ran ? fixedStr(job.run_ms, 2) : "skipped"});
    }
    t.addSeparator();
    t.addRow({"cache: hits (mem+disk)",
              std::to_string(results.cache.mem_hits) + "+" +
                  std::to_string(results.cache.disk_hits),
              percent(results.cache.hitRate())});
    t.addRow({"cache: misses / puts",
              std::to_string(results.cache.misses),
              std::to_string(results.cache.puts)});
    t.addRow({"wall clock", "-", fixedStr(results.wall_ms, 1)});
    return t;
}

} // namespace pibe::core
