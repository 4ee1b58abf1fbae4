/**
 * @file
 * Workload `paper_eval`: the Table-5 slice through core::runExperiments.
 *
 * Three images (lto, noopt-all, pibe-all) of the default evaluation
 * kernel, each measured on the 20 LMBench tests and nginx, apache and
 * dbench (69 measurements), with a cold in-memory cache every time.
 * The seed picks the data of the syscall script that checks every
 * image against the linked kernel run on the reference interpreter.
 */
#include <bit>
#include <cstdio>
#include <memory>

#include "analysis/layout.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "kernel/kernel.h"
#include "pibe/engine.h"
#include "profile/serialize.h"
#include "support/rng.h"
#include "support/stats.h"
#include "uarch/decoded_module.h"
#include "uarch/simulator.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {

using namespace pibe;

namespace {

const char* const kMacro[] = {"nginx", "apache", "dbench"};

struct Setup
{
    kernel::KernelConfig kernel;
    uint32_t profile_iters = 120;
    core::MeasureConfig measure;
    std::vector<core::ExperimentPlan::ImageSpec> images;
};

Setup
makeSetup(bool small)
{
    Setup s;
    if (small) {
        s.kernel.num_drivers = 16;
        s.profile_iters = 10;
        s.measure.warmup_iters = 10;
        s.measure.measure_iters = 20;
    }
    s.images = {
        {"lto", core::OptConfig::none(), harden::DefenseConfig::none()},
        {"noopt-all", core::OptConfig::none(),
         harden::DefenseConfig::all()},
        {"pibe-all", pibeConfig(), harden::DefenseConfig::all()},
    };
    return s;
}

core::ExperimentPlan
makePlan(const Setup& s)
{
    core::ExperimentPlan plan;
    plan.kernel = s.kernel;
    plan.profile_base_iters = s.profile_iters;
    plan.measure = s.measure;
    for (const auto& spec : s.images) {
        plan.addImage(spec.name, spec.opt, spec.defense);
        plan.measureLmbenchOn(spec.name);
        for (const char* macro : kMacro)
            plan.measureOn(spec.name, macro);
    }
    return plan;
}

/** The linked kernel and its canonical training profile. */
struct Inputs
{
    std::unique_ptr<ir::Module> kernel;
    kernel::KernelInfo info;
    profile::EdgeProfile profile;
};

/** Input generation, spanned layer by layer. */
Inputs
generateInputs(Tracer& t, const Setup& s)
{
    Inputs in;
    kernel::KernelImage k = [&] {
        auto sp = t.span("kernel.build");
        return kernel::buildKernel(s.kernel);
    }();
    std::string text;
    {
        auto sp = t.span("ir.print");
        text = ir::printModule(k.module);
    }
    {
        auto sp = t.span("ir.parse");
        in.kernel = std::make_unique<ir::Module>(ir::parseModule(text));
    }
    in.info = kernel::kernelInfoFromModule(*in.kernel);
    profile::EdgeProfile raw;
    {
        auto sp = t.span("profile.collect");
        raw = core::collectLmbenchProfile(*in.kernel, in.info,
                                          s.profile_iters);
    }
    {
        auto sp = t.span("profile.lift");
        in.profile = profile::liftProfile(
            *in.kernel, profile::serializeProfile(*in.kernel, raw));
    }
    return in;
}

/**
 * A fixed syscall script (file, socket, process, memory and signal
 * paths) whose data comes from `seed`. Returns every syscall result,
 * the user-buffer read-back and the sink hash.
 */
std::vector<int64_t>
runScript(const ir::Module& image, const kernel::KernelInfo& info,
          uint64_t seed, bool reference)
{
    namespace sysno = kernel::sysno;
    Rng rng(seed);
    uarch::Simulator sim(image);
    sim.setTimingEnabled(false);
    sim.setUseReferencePath(reference);
    workload::KernelHandle k(sim, info);
    k.boot();
    std::vector<int64_t> out;
    auto record = [&](int64_t v) { out.push_back(v); };
    auto path = [&] {
        return workload::KernelHandle::pathHash(
            static_cast<int64_t>(rng.below(64)));
    };
    const int64_t len = 2 + static_cast<int64_t>(rng.below(7));
    const int64_t base = kernel::KernelLayout::kUserBase;

    record(k.syscall(sysno::kNull));
    const int64_t fd = k.syscall(sysno::kOpen, path());
    record(fd);
    for (int64_t i = 0; i < len; ++i)
        sim.writeGlobal(info.kmem, base + i,
                        static_cast<int64_t>(rng.below(1000)));
    record(k.syscall(sysno::kWrite, fd, 0, len));
    record(k.syscall(sysno::kLseek, fd, 0));
    record(k.syscall(sysno::kRead, fd, 32, len));
    for (int64_t i = 0; i < len; ++i)
        record(sim.readGlobal(info.kmem, base + 32 + i));
    record(k.syscall(sysno::kStat, path(), 64));
    const int64_t s1 = k.syscall(sysno::kSocket, kernel::proto::kTcp);
    const int64_t s2 = k.syscall(sysno::kSocket, kernel::proto::kTcp);
    record(k.syscall(sysno::kConnect, s1, s2));
    record(k.syscall(sysno::kSend, s1, 0, len));
    record(k.syscall(sysno::kRecv, s2, 48, len));
    const int64_t pid = k.syscall(sysno::kFork);
    record(pid);
    record(k.syscall(sysno::kExec, path()));
    record(k.syscall(sysno::kExit, pid));
    record(k.syscall(sysno::kMmap, 4096, 64));
    record(k.syscall(sysno::kPageFault,
                     4096 + static_cast<int64_t>(rng.below(64))));
    record(k.syscall(sysno::kSigaction, 1 + rng.below(8), 1));
    record(k.syscall(sysno::kKill, 1, 5));
    record(k.syscall(sysno::kSelect, 2, 200));
    record(k.syscall(sysno::kClose, fd));
    record(static_cast<int64_t>(sim.sinkHash()));
    return out;
}

/**
 * The corrupted-input test: change one instruction of the image, the
 * syscall-table load in sys_dispatch (offset 0 -> 1).
 */
void
corruptImage(ir::Module& image)
{
    const ir::GlobalId table = image.findGlobal("syscall_table");
    const ir::FuncId f = image.findFunction("sys_dispatch");
    for (auto& bb : image.func(f).blocks)
        for (auto& inst : bb.insts)
            if (inst.op == ir::Opcode::kLoad && inst.global == table) {
                inst.imm += 1;
                return;
            }
}

bool
isMacro(const std::string& name)
{
    for (const char* m : kMacro)
        if (name == m)
            return true;
    return false;
}

std::string
bits(const core::Measurement& m)
{
    return std::to_string(std::bit_cast<uint64_t>(m.latency_us)) + ":" +
           std::to_string(m.stats.cycles) + ":" +
           std::to_string(m.stats.instructions);
}

/** Geomean overheads (%) of pibe-all over lto: LMBench, macro. */
std::pair<double, double>
overheads(const core::ExperimentResults& res)
{
    std::vector<double> micro, macro;
    for (const auto& [name, m] : res.measurements.at("pibe-all")) {
        const double o =
            pibe::overhead(m.latency_us, res.at("lto", name).latency_us);
        (isMacro(name) ? macro : micro).push_back(o);
    }
    return {100 * geomeanOverhead(micro), 100 * geomeanOverhead(macro)};
}

/** Simulator counters of the measured phase, per "image/workload". */
using MeasuredStats = std::map<std::string, uarch::RunStats>;

/**
 * The steps of core::measureWorkload, one span each: `uarch.boot`
 * (Simulator construction and KernelHandle::boot), `workload.warmup`
 * (setup and warm-up iterations) and `uarch.simulate` (the measured
 * iterations alone, whose counters are returned).
 */
uarch::RunStats
measureSteps(Tracer& t, std::shared_ptr<const uarch::DecodedModule> decoded,
             const kernel::KernelInfo& info, workload::Workload& wl,
             const core::MeasureConfig& config)
{
    std::unique_ptr<uarch::Simulator> sim;
    {
        auto sp = t.span("uarch.boot");
        sim = std::make_unique<uarch::Simulator>(std::move(decoded),
                                                 config.params);
        workload::KernelHandle(*sim, info).boot();
    }
    workload::KernelHandle handle(*sim, info);
    {
        auto sp = t.span("workload.warmup");
        wl.setup(handle);
        for (uint32_t i = 0; i < config.warmup_iters; ++i)
            wl.iteration(handle, i);
    }
    sim->clearStats();
    {
        auto sp = t.span("uarch.simulate");
        for (uint32_t i = 0; i < config.measure_iters; ++i)
            wl.iteration(handle, config.warmup_iters + i);
    }
    return sim->stats();
}

/**
 * The traced run's pass: the same pipeline as runExperiments, serial,
 * one public call per span, under the root span `paper_eval`.
 */
std::string
pipelinePass(Tracer& t, const Setup& s, runtime::ThreadPool& pool,
             StageCounts* counts, MeasuredStats* measured, Result& r)
{
    auto root = t.span("paper_eval");
    const Inputs in = generateInputs(t, s);
    std::string pibe_text;
    for (const auto& spec : s.images) {
        bool verified = false;
        const ir::Module built = buildExplicit(
            t, *in.kernel, in.profile, spec.opt, spec.defense, counts,
            &verified);
        r.gate(verified, spec.name + ": image fails the verifier");
        r.gate(auditImage(t, built, spec.defense, pool, counts),
               spec.name + ": audit found errors");
        std::string text;
        {
            auto sp = t.span("ir.print");
            text = ir::printModule(built);
        }
        if (spec.name == "pibe-all")
            pibe_text = text;
        std::unique_ptr<ir::Module> image;
        {
            auto sp = t.span("ir.parse");
            image = std::make_unique<ir::Module>(ir::parseModule(text));
        }
        const kernel::KernelInfo info =
            kernel::kernelInfoFromModule(*image);
        std::shared_ptr<const uarch::DecodedModule> decoded;
        {
            auto sp = t.span("uarch.decode");
            decoded = std::make_shared<const uarch::DecodedModule>(*image);
        }
        std::vector<std::string> names;
        for (const auto& wl : workload::makeLmbenchSuite())
            names.push_back(wl->name());
        for (const char* m : kMacro)
            names.push_back(m);
        for (const std::string& name : names) {
            auto sp = t.span(isMacro(name) ? "workload.macro"
                                           : "workload.lmbench");
            std::unique_ptr<workload::Workload> wl =
                name == "nginx"    ? workload::makeNginxWorkload()
                : name == "apache" ? workload::makeApacheWorkload()
                : name == "dbench" ? workload::makeDbenchWorkload()
                                   : workload::makeLmbenchTest(name);
            (*measured)[spec.name + "/" + name] =
                measureSteps(t, decoded, info, *wl, s.measure);
        }
    }
    return pibe_text;
}

void
runTraced(const Options& opt, const Setup& s, Result& r)
{
    runtime::ThreadPool pool(kPoolWorkers);
    Tracer off(false);
    StageCounts scratch;
    MeasuredStats scratch_stats, measured;
    std::string untraced_text, traced_text;
    Tracer t(true);
    StageCounts counts;
    const double untraced_ms = untracedAround(
        [&](int) {
            untraced_text =
                pipelinePass(off, s, pool, &scratch, &scratch_stats, r);
        },
        [&] {
            traced_text = pipelinePass(t, s, pool, &counts, &measured, r);
        });
    r.gate(textDigest(traced_text) == textDigest(untraced_text),
           "pibe-all digest differs between traced and untraced pass");
    reportAccounting(t, "paper_eval", r);
    r.set("trace.overhead_ms", t.totalMs("paper_eval") - untraced_ms);
    reportStageCounts(counts, r);
    reportSpans(t, r);

    // The interpreter's rate: instructions and time of the measured
    // iterations alone; boot and warm-up have spans of their own.
    const std::map<std::string, double> incl = t.inclusiveMs();
    uint64_t sim_insts = 0;
    for (const auto& [key, stats] : measured)
        sim_insts += stats.instructions;
    r.set("uarch.sim_insts", static_cast<double>(sim_insts));
    r.set("uarch.minstr_per_s", static_cast<double>(sim_insts) /
                                    (incl.at("uarch.simulate") * 1e3));
    r.set("uarch.boot_ms", incl.at("uarch.boot") /
                               static_cast<double>(measured.size()));

    // Sandwich cost, and core::buildImage against the explicit passes.
    const Inputs in = generateInputs(off, s);
    std::string sandwiched;
    r.set("check.sandwich_ms",
          sandwichMs(*in.kernel, in.profile, &sandwiched));
    r.gate(textDigest(sandwiched) == textDigest(traced_text),
           "explicit pass sequence differs from core::buildImage");

    // The engine's own scheduling and cache counters.
    const core::ExperimentResults res =
        core::runExperiments(makePlan(s), {kPoolWorkers, true, ""});
    double wait_ms = 0;
    for (const auto& job : res.jobs)
        wait_ms += job.queue_wait_ms;
    r.set("runtime.queue_wait_ms",
          wait_ms / static_cast<double>(res.jobs.size()));
    r.set("runtime.cache_hit_rate", res.cache.hitRate());
    r.set("runtime.cache_get_ms",
          res.cache.get_ms_total /
              static_cast<double>(std::max<uint64_t>(1, res.cache.lookups())));
    r.set("runtime.cache_put_ms",
          res.cache.put_ms_total /
              static_cast<double>(std::max<uint64_t>(1, res.cache.puts)));
    // The explicit measure steps count what core::measureWorkload does.
    for (const auto& [key, stats] : measured) {
        const size_t slash = key.find('/');
        const uarch::RunStats& engine =
            res.at(key.substr(0, slash), key.substr(slash + 1)).stats;
        r.gate(stats.cycles == engine.cycles &&
                   stats.instructions == engine.instructions,
               key + ": explicit measure steps differ from the engine");
    }
    const auto [micro, macro] = overheads(res);
    r.set("overhead_pct", micro);
    r.set("macro_overhead_pct", macro);

    t.writeChromeTrace(opt.out_dir + "/paper_eval.trace.json");
    t.writeSelfTable(opt.out_dir + "/paper_eval.self.tsv");
}

} // namespace

void
runPaperEval(const Options& opt, Result& r)
{
    const Setup s = makeSetup(opt.small);
    if (opt.trace) {
        runTraced(opt, s, r);
        return;
    }

    // Set-up: input generation, timed kSetups times.
    Tracer off(false);
    std::vector<double> setups;
    auto setUp = [&] {
        const Clock::time_point t0 = Clock::now();
        Inputs generated = generateInputs(off, s);
        setups.push_back(secondsSince(t0));
        return generated;
    };
    Inputs in;
    for (int i = 0; i < kSetups / 2; ++i)
        in = setUp();

    // Timed phase: whole runExperiments calls until time is up. The
    // first call warms the allocator and is checked but not timed.
    const core::ExperimentPlan plan = makePlan(s);
    std::vector<double> totals, builds, measures, cpus, p50s, p99s;
    std::map<std::string, std::string> first_bits;
    std::pair<double, double> over{0, 0};
    const Clock::time_point start = Clock::now();
    for (int iter = 0; iter < 2 || secondsSince(start) < opt.seconds;
         ++iter) {
        const double cpu0 = processCpuSeconds();
        const Clock::time_point t0 = Clock::now();
        const core::ExperimentResults res =
            core::runExperiments(plan, {kPoolWorkers, true, ""});
        const double total = secondsSince(t0);
        const double cpu = processCpuSeconds() - cpu0;
        for (const auto& [image, runs] : res.measurements)
            for (const auto& [name, m] : runs) {
                const std::string key = image + "/" + name;
                auto [it, fresh] = first_bits.emplace(key, bits(m));
                r.gate(m.latency_us > 0 && it->second == bits(m),
                       key + ": measurement differs between runs");
            }
        if (iter == 0) {
            over = overheads(res);
            continue;
        }
        // Build and measure parts: summed wall time of the engine's
        // build jobs (kernel, profile, images) and measure jobs. The
        // pool has one worker, so the parts add up to about total.
        double build_ms = 0, measure_ms = 0;
        std::vector<double> job_ms;
        for (const auto& job : res.jobs) {
            if (job.name.rfind("measure:", 0) == 0) {
                measure_ms += job.run_ms;
                job_ms.push_back(job.run_ms);
            } else {
                build_ms += job.run_ms;
            }
        }
        p50s.push_back(percentile(job_ms, 0.50));
        p99s.push_back(percentile(job_ms, 0.99));
        totals.push_back(total);
        cpus.push_back(cpu);
        builds.push_back(build_ms / 1e3);
        measures.push_back(measure_ms / 1e3);
        std::printf("# iteration %d: total_s=%.4f build_s=%.4f "
                    "measure_s=%.4f cpu_s=%.4f\n",
                    iter, total, builds.back(), measures.back(), cpu);
    }

    // Output gates: every image runs the seeded script exactly like
    // the linked kernel on the reference interpreter.
    const std::vector<int64_t> expected =
        runScript(*in.kernel, in.info, opt.seed, true);
    for (const auto& spec : s.images) {
        ir::Module image = core::buildImage(*in.kernel, in.profile,
                                            spec.opt, spec.defense);
        if (spec.name == "pibe-all") {
            r.set("image_bytes",
                  static_cast<double>(analysis::imageSizeOf(image)));
            if (opt.corrupt)
                corruptImage(image);
        }
        r.gate(runScript(image, kernel::kernelInfoFromModule(image),
                         opt.seed, false) == expected,
               spec.name + ": syscall script differs from reference");
    }
    for (int i = 0; i < kSetups / 2; ++i)
        setUp();
    r.set("setup_s", median(setups));

    r.set("total_s", median(totals));
    r.set("build_s", median(builds));
    r.set("measure_s", median(measures));
    r.set("cpu_s", median(cpus));
    r.set("latency_p50_ms", median(p50s));
    r.set("latency_p99_ms", median(p99s));
    r.set("ops_per_s", static_cast<double>(plan.runs.size()) /
                           median(totals));
    r.set("overhead_pct", over.first);
    r.set("macro_overhead_pct", over.second);
}

} // namespace perfbench
