#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "check/analysis_manager.h"
#include "check/checks.h"
#include "check/target_sets.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "opt/icp.h"
#include "opt/inliner.h"
#include "runtime/digest.h"

namespace perfbench {

using namespace pibe;

void
Result::gate(bool ok, const std::string& what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(what);
}

const std::vector<MetricSpec>&
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},          {"total_s", "s"},
        {"build_s", "s"},          {"measure_s", "s"},
        {"cpu_s", "s"},            {"peak_rss_mb", "MB"},
        {"image_bytes", "bytes"},  {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},  {"ops_per_s", "1/s"},
    };
    return specs;
}

const std::vector<MetricSpec>&
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"ir.parse_ms", "ms"},
        {"ir.print_ms", "ms"},
        {"ir.verify_ms", "ms"},
        {"kernel.build_ms", "ms"},
        {"profile.collect_ms", "ms"},
        {"profile.lift_ms", "ms"},
        {"scale.gen_ms", "ms"},
        {"opt.icp_ms", "ms"},
        {"opt.inline_ms", "ms"},
        {"opt.promoted_sites", "count"},
        {"opt.inlined_sites", "count"},
        {"opt.inline_yield", "ratio"},
        {"harden.apply_ms", "ms"},
        {"harden.coverage_ms", "ms"},
        {"harden.protected_sites", "count"},
        {"check.targets_solve_ms", "ms"},
        {"check.shards_ms", "ms"},
        {"check.module_ms", "ms"},
        {"check.sandwich_ms", "ms"},
        {"check.solver_pops", "count"},
        {"uarch.decode_ms", "ms"},
        {"uarch.boot_ms", "ms"},
        {"uarch.simulate_ms", "ms"},
        {"uarch.sim_insts", "count"},
        {"uarch.minstr_per_s", "Minstr/s"},
        {"workload.lmbench_ms", "ms"},
        {"workload.macro_ms", "ms"},
        {"runtime.cache_hit_rate", "ratio"},
        {"runtime.cache_get_ms", "ms"},
        {"runtime.cache_put_ms", "ms"},
        {"runtime.queue_wait_ms", "ms"},
        {"serve.handle_ms.measure", "ms"},
        {"serve.handle_ms.optimize", "ms"},
        {"serve.handle_ms.check", "ms"},
        {"serve.admission_wait_ms", "ms"},
        {"serve.coalesced", "count"},
        {"serve.rtt_minus_handle_ms", "ms"},
        {"serve.gen_lag_ms", "ms"},
        {"serve.capacity_rps", "1/s"},
        {"serve.utilisation", "ratio"},
        {"serve_p50_ms", "ms"},
        {"serve_p99_ms", "ms"},
        {"serve_hit_p99_ms", "ms"},
        {"serve_rps", "1/s"},
        {"overhead_pct", "%"},
        {"macro_overhead_pct", "%"},
        {"error_rate", "ratio"},
        {"trace.total_ms", "ms"},
        {"trace.unattributed_ms", "ms"},
        {"trace.overhead_ms", "ms"},
        {"context.nproc", "count"},
        {"context.parallelism", "x"},
        {"context.probe_ms", "ms"},
    };
    return specs;
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

unsigned
workerCap()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::string
textDigest(const std::string& text)
{
    runtime::Digest d;
    d.add(text);
    return d.hex();
}

core::OptConfig
pibeConfig()
{
    return core::OptConfig::icpAndInline(0.999999);
}

ir::Module
buildExplicit(Tracer& tracer, const ir::Module& linked,
              const profile::EdgeProfile& profile,
              const core::OptConfig& opt,
              const harden::DefenseConfig& defense, StageCounts* counts,
              bool* verified)
{
    ir::Module image = linked;
    profile::EdgeProfile working = profile;
    if (opt.enable_icp) {
        auto s = tracer.span("opt.icp");
        opt::IcpConfig cfg;
        cfg.budget = opt.icp_budget;
        cfg.max_targets_per_site = opt.icp_max_targets;
        counts->promoted_sites +=
            opt::runIcp(image, working, cfg).promoted_sites;
    }
    if (opt.inliner == core::InlinerKind::kPibe) {
        auto s = tracer.span("opt.inline");
        opt::PibeInlinerConfig cfg;
        cfg.budget = opt.inline_budget;
        cfg.lax_heuristics = opt.lax_heuristics;
        cfg.lax_budget = opt.lax_budget;
        cfg.rule2_caller_threshold = opt.rule2_caller_threshold;
        cfg.rule3_callee_threshold = opt.rule3_callee_threshold;
        const opt::InlineAudit audit =
            opt::runPibeInliner(image, working, cfg);
        counts->inlined_sites += audit.inlined_sites;
        counts->attempted_sites += audit.attempted_sites;
    }
    {
        auto s = tracer.span("harden.apply");
        const harden::CoverageReport cov =
            harden::applyDefenses(image, defense);
        counts->protected_sites +=
            cov.protected_icalls + cov.protected_rets;
    }
    {
        auto s = tracer.span("ir.verify");
        *verified = ir::verifyModule(image).empty();
    }
    return image;
}

bool
auditImage(Tracer& tracer, const ir::Module& image,
           const harden::DefenseConfig& defense,
           runtime::ThreadPool& pool, StageCounts* counts)
{
    check::AnalysisManager am(image);
    {
        auto s = tracer.span("check.targets_solve");
        am.targetSets().ensureSolved();
    }
    counts->solver_pops += am.targetSets().solverStats().pops;
    check::CheckOptions opts;
    opts.coverage = true;
    opts.targets = true;
    opts.defense = defense;
    check::CheckReport report;
    {
        auto s = tracer.span("check.runChecksParallel");
        report = check::runChecksParallel(image, opts, pool, 64, &am);
    }
    for (const auto& [group, ms] : report.group_ms) {
        if (group == "shards.parallel")
            counts->shards_ms += ms;
        else if (group == "module.serial")
            counts->module_ms += ms;
    }
    {
        auto s = tracer.span("harden.coverage");
        harden::analyzeCoverage(image);
    }
    return report.ok(check::Severity::kError);
}

void
reportSpans(const Tracer& tracer, Result& r)
{
    for (const auto& [name, ms] : tracer.inclusiveMs()) {
        const std::string metric = name + "_ms";
        for (const MetricSpec& m : perLayerMetrics())
            if (metric == m.name && !r.values.count(metric))
                r.set(metric, ms);
    }
}

double
sandwichMs(const ir::Module& linked, const profile::EdgeProfile& profile,
           std::string* text)
{
    core::OptConfig bare = pibeConfig();
    bare.sandwich = false;
    Clock::time_point t0 = Clock::now();
    const ir::Module with = core::buildImage(
        linked, profile, pibeConfig(), harden::DefenseConfig::all());
    const double with_ms = msSince(t0);
    t0 = Clock::now();
    core::buildImage(linked, profile, bare, harden::DefenseConfig::all());
    const double without_ms = msSince(t0);
    *text = ir::printModule(with);
    return with_ms - without_ms;
}

void
reportStageCounts(const StageCounts& c, Result& r)
{
    r.set("opt.promoted_sites", static_cast<double>(c.promoted_sites));
    r.set("opt.inlined_sites", static_cast<double>(c.inlined_sites));
    r.set("opt.inline_yield",
          c.attempted_sites
              ? static_cast<double>(c.inlined_sites) /
                    static_cast<double>(c.attempted_sites)
              : 0.0);
    r.set("harden.protected_sites",
          static_cast<double>(c.protected_sites));
    r.set("check.solver_pops", static_cast<double>(c.solver_pops));
    r.set("check.shards_ms", c.shards_ms);
    r.set("check.module_ms", c.module_ms);
}

void
reportAccounting(const Tracer& tracer, const std::string& root,
                 Result& r)
{
    const double total = tracer.totalMs(root);
    const std::map<std::string, double> self = tracer.selfMs();
    double attributed = 0;
    for (const auto& [name, ms] : self)
        if (name != root)
            attributed += ms;
    const double unattributed = self.count(root) ? self.at(root) : 0.0;
    r.set("trace.total_ms", total);
    r.set("trace.unattributed_ms", unattributed);
    r.gate(std::fabs(attributed + unattributed - total) <=
               1e-6 * total + 1e-6,
           "layer self times + unattributed != traced total");
}

} // namespace perfbench
