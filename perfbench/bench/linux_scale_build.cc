/**
 * @file
 * Workload `linux_scale_build`: compile time at Linux scale.
 *
 * A 10^6-instruction module from scale::buildScaleModule (default
 * shape, seeded) and its synthetic profile go through core::buildImage
 * (PIBE config, all defenses, pass sandwich on), then ir::printModule
 * of the image and check::runChecksParallel at the capped worker
 * count. Nothing is simulated.
 */
#include <cstdio>

#include "analysis/layout.h"
#include "check/checks.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "scale/scale_builder.h"
#include "scale/synthetic_profile.h"
#include "workloads.h"

namespace perfbench {

using namespace pibe;

namespace {

struct Inputs
{
    ir::Module module;
    profile::EdgeProfile profile;
};

Inputs
generate(Tracer& t, const Options& opt)
{
    auto sp = t.span("scale.gen");
    scale::ScaleConfig cfg;
    cfg.seed = opt.seed;
    cfg.target_insts = opt.small ? 20000 : 1000000;
    Inputs in{scale::buildScaleModule(cfg), {}};
    scale::SyntheticProfileConfig pcfg;
    pcfg.seed = opt.seed;
    in.profile = scale::synthesizeProfile(in.module, pcfg);
    return in;
}

/** Strip the scheme of the first hardened indirect call. */
void
corruptImage(ir::Module& image)
{
    for (ir::FuncId f = 0; f < image.numFunctions(); ++f)
        for (auto& bb : image.func(f).blocks)
            for (auto& inst : bb.insts)
                if (inst.op == ir::Opcode::kICall &&
                    inst.fwd_scheme != ir::FwdScheme::kNone) {
                    inst.fwd_scheme = ir::FwdScheme::kNone;
                    return;
                }
}

/** The traced run's pass, under the root span `linux_scale_build`. */
std::string
pipelinePass(Tracer& t, const Options& opt, runtime::ThreadPool& pool,
             StageCounts* counts, Result& r)
{
    auto root = t.span("linux_scale_build");
    const Inputs in = generate(t, opt);
    bool verified = false;
    const ir::Module image =
        buildExplicit(t, in.module, in.profile, pibeConfig(),
                      harden::DefenseConfig::all(), counts, &verified);
    r.gate(verified, "image fails the verifier");
    r.gate(auditImage(t, image, harden::DefenseConfig::all(), pool,
                      counts),
           "audit found errors");
    std::string text;
    {
        auto sp = t.span("ir.print");
        text = ir::printModule(image);
    }
    {
        auto sp = t.span("ir.parse");
        r.gate(ir::parseModule(text).numFunctions() ==
                   image.numFunctions(),
               "printed image does not parse back");
    }
    return text;
}

void
runTraced(const Options& opt, Result& r)
{
    runtime::ThreadPool pool(kPoolWorkers);
    Tracer off(false);
    StageCounts scratch;
    std::string untraced, traced;
    Tracer t(true);
    StageCounts counts;
    const double untraced_ms = untracedAround(
        [&](int) { untraced = pipelinePass(off, opt, pool, &scratch, r); },
        [&] { traced = pipelinePass(t, opt, pool, &counts, r); });
    reportAccounting(t, "linux_scale_build", r);
    r.set("trace.overhead_ms",
          t.totalMs("linux_scale_build") - untraced_ms);
    reportStageCounts(counts, r);
    reportSpans(t, r);

    // Sandwich cost, and the digest of the untraced pipeline
    // (core::buildImage) against the traced explicit passes.
    const Inputs in = generate(off, opt);
    std::string sandwiched;
    r.set("check.sandwich_ms",
          sandwichMs(in.module, in.profile, &sandwiched));
    const std::string digest = textDigest(traced);
    r.gate(digest == textDigest(untraced),
           "digest differs between traced and untraced pass");
    r.gate(digest == textDigest(sandwiched),
           "traced digest differs from core::buildImage digest");

    t.writeChromeTrace(opt.out_dir + "/linux_scale_build.trace.json");
    t.writeSelfTable(opt.out_dir + "/linux_scale_build.self.tsv");
}

} // namespace

void
runLinuxScaleBuild(const Options& opt, Result& r)
{
    if (opt.trace) {
        runTraced(opt, r);
        return;
    }

    // Set-up: module generation and profile synthesis, timed kSetups
    // times; one input is alive at a time.
    Tracer off(false);
    std::vector<double> setups;
    Inputs in;
    auto setUp = [&] {
        in = Inputs{};
        const Clock::time_point t0 = Clock::now();
        in = generate(off, opt);
        setups.push_back(secondsSince(t0));
    };
    for (int i = 0; i < kSetups / 2; ++i)
        setUp();

    // Timed phase: checked builds until time is up. The first one
    // warms the allocator and is checked but not timed.
    runtime::ThreadPool pool(kPoolWorkers);
    std::vector<double> totals, builds, measures, cpus;
    std::string first_digest;
    ir::Module image;
    const Clock::time_point start = Clock::now();
    for (int iter = 0; iter < 2 || secondsSince(start) < opt.seconds;
         ++iter) {
        image = ir::Module{};
        const double cpu0 = processCpuSeconds();
        const Clock::time_point t0 = Clock::now();
        image = core::buildImage(in.module, in.profile, pibeConfig(),
                                 harden::DefenseConfig::all());
        const double build = secondsSince(t0);
        const std::string digest = textDigest(ir::printModule(image));
        StageCounts counts;
        const bool clean = auditImage(off, image,
                                      harden::DefenseConfig::all(), pool,
                                      &counts);
        const double total = secondsSince(t0);
        const double cpu = processCpuSeconds() - cpu0;
        if (first_digest.empty())
            first_digest = digest;
        r.gate(clean, "parallel checks found errors");
        r.gate(digest == first_digest, "image digest differs between "
                                       "repetitions");
        if (iter == 0)
            continue;
        totals.push_back(total);
        builds.push_back(build);
        measures.push_back(total - build);
        cpus.push_back(cpu);
        std::printf("# iteration %d: total_s=%.4f build_s=%.4f "
                    "measure_s=%.4f cpu_s=%.4f\n",
                    iter, total, build, total - build, cpu);
    }

    // Output gates on the last image.
    r.set("image_bytes",
          static_cast<double>(analysis::imageSizeOf(image)));
    if (opt.corrupt)
        corruptImage(image);
    r.gate(ir::verifyModule(image).empty(), "image fails the verifier");
    check::CheckOptions copts;
    copts.coverage = true;
    copts.targets = true;
    copts.defense = harden::DefenseConfig::all();
    r.gate(check::runChecksWithPolicy(image, copts,
                                      check::Severity::kError)
               .passed,
           "runChecksWithPolicy(error) fails on the image");
    image = ir::Module{};
    for (int i = 0; i < kSetups / 2; ++i)
        setUp();

    r.set("setup_s", median(setups));
    r.set("total_s", median(totals));
    r.set("build_s", median(builds));
    r.set("measure_s", median(measures));
    r.set("cpu_s", median(cpus));
    r.set("latency_p50_ms", 1e3 * percentile(totals, 0.50));
    r.set("latency_p99_ms", 1e3 * percentile(totals, 0.99));
    r.set("ops_per_s", 1.0 / median(totals));
}

} // namespace perfbench
