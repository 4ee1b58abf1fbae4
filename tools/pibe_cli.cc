/**
 * @file
 * pibe — command-line driver for the PIBE toolkit.
 *
 * Mirrors the paper's build workflow (LLVM bitcode + opt passes) over
 * PIR text files:
 *
 *   pibe kernel   -o kernel.pir [--drivers N] [--seed S]
 *   pibe profile  -m kernel.pir -o prof.txt [--workload W] [--iters N]
 *   pibe optimize -m kernel.pir -p prof.txt -o image.pir
 *                 [--icp-budget F] [--inline-budget F] [--lax]
 *                 [--inliner pibe|default|none]
 *                 [--defense none|retpolines|ret-retpolines|lvi|all|
 *                            jumpswitches] [--report]
 *   pibe measure  -m image.pir [--baseline base.pir] [--test NAME]
 *                 [--jobs N] [--cache-dir DIR] [--decode-stats]
 *                 [--decode-stats-json FILE]
 *   pibe attack   -m image.pir [--kind spectre-v2|ret2spec|lvi]
 *   pibe stats    -m file.pir
 *   pibe check    -m file.pir [-p prof.txt] [--defense NAME]
 *                 [--checks verify,lint,coverage,profile,targets]
 *                 [--json] [--fail-on note|warn|error] [--roots a,b,c]
 *                 [--allow-func f,g] [--allow-site 1,2]
 *                 [--jobs N] [--timing]
 *   pibe surface  -m file.pir [-p prof.txt] [--json FILE]
 *                 [--max-targets N] [--fail-on note|warn|error]
 *                 [--roots a,b,c]
 *   pibe serve    [--socket PATH] [--tcp PORT] [--jobs N]
 *                 [--cache-dir DIR] [--cache-budget BYTES]
 *                 [--drivers N] [--seed S] [--profile-iters N]
 *                 [--max-inflight N] [--defense NAME]
 *                 [--fail-on note|warn|error] [--auth-token T]
 *   pibe loadgen  [--socket PATH] [--tcp PORT] [--requests N]
 *                 [--clients N] [--seed S] [--variants N]
 *                 [--verify N] [--out FILE] [--auth-token T]
 *   pibe client   --op NAME [--params JSON] [--socket PATH]
 *                 [--tcp PORT] [--save-text FILE] [--auth-token T]
 *
 * --auth-token defaults to $PIBE_SERVE_TOKEN; when the daemon has a
 * token, TCP connections must authenticate before any other op.
 *   pibe genkernel -o big.pir [--insts N] [--seed S]
 *                 [--profile prof.txt] [--depth N] [--fanout F]
 *                 [--icalls-per-kinst F] [--ops-per-table N]
 *                 [--entry-points N] [--mix core,fs,net,drivers]
 *   pibe scalebench [--sizes N,N,...] [--seed S] [--jobs N]
 *                 [--out BENCH_scale.json]
 *   pibe selftest            (end-to-end smoke of all subcommands)
 *
 * scalebench runs core::buildImage plus one check::runChecksParallel
 * audit per generated module, on one worker and on --jobs N workers,
 * and records both timings with an in-run calibration probe.
 *
 * A malformed numeric option value exits 2 (usage error); fatal
 * errors exit 1.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/checks.h"
#include "check/target_sets.h"
#include "harden/harden.h"
#include "ir/parser.h"
#include "pibe/engine.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "kernel/kernel.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "profile/serialize.h"
#include "runtime/artifact_cache.h"
#include "runtime/digest.h"
#include "runtime/job_graph.h"
#include "runtime/thread_pool.h"
#include "scale/scale_builder.h"
#include "scale/synthetic_profile.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/timer.h"
#include "uarch/simulator.h"
#include "uarch/speculation.h"

namespace pibe::cli {
namespace {

/**
 * Numeric option values: the whole text must parse. A malformed or
 * out-of-range value throws std::invalid_argument / std::out_of_range
 * naming the flag and the text; run() reports either as a usage error
 * (exit 2).
 */
uint64_t
parseUnsigned(const std::string& flag, const std::string& text)
{
    size_t end = 0;
    uint64_t v = 0;
    try {
        v = std::stoull(text, &end);
    } catch (const std::out_of_range&) {
        throw std::out_of_range(flag + " value '" + text +
                                "' is out of range");
    } catch (const std::invalid_argument&) {
        // `end` stays 0: reported below.
    }
    if (end == 0 || end != text.size() ||
        text.find('-') != std::string::npos)
        throw std::invalid_argument(flag + " value '" + text +
                                    "' is not an unsigned integer");
    return v;
}

double
parseReal(const std::string& flag, const std::string& text)
{
    size_t end = 0;
    double v = 0;
    try {
        v = std::stod(text, &end);
    } catch (const std::out_of_range&) {
        throw std::out_of_range(flag + " value '" + text +
                                "' is out of range");
    } catch (const std::invalid_argument&) {
        // `end` stays 0: reported below.
    }
    if (end == 0 || end != text.size())
        throw std::invalid_argument(flag + " value '" + text +
                                    "' is not a number");
    return v;
}

/** Minimal argv option scanner. */
class Args
{
  public:
    Args(int argc, char** argv)
    {
        for (int i = 0; i < argc; ++i)
            args_.emplace_back(argv[i]);
    }

    std::string
    get(const std::string& flag, const std::string& fallback = "")
    {
        const std::string eq = flag + "=";
        for (size_t i = 0; i < args_.size(); ++i) {
            if (args_[i] == flag && i + 1 < args_.size()) {
                used_[i] = used_[i + 1] = true;
                return args_[i + 1];
            }
            if (args_[i].rfind(eq, 0) == 0) {
                used_[i] = true;
                return args_[i].substr(eq.size());
            }
        }
        return fallback;
    }

    uint64_t
    getUnsigned(const std::string& flag, const std::string& fallback)
    {
        return parseUnsigned(flag, get(flag, fallback));
    }

    double
    getReal(const std::string& flag, const std::string& fallback)
    {
        return parseReal(flag, get(flag, fallback));
    }

    bool
    has(const std::string& flag)
    {
        for (size_t i = 0; i < args_.size(); ++i) {
            if (args_[i] == flag) {
                used_[i] = true;
                return true;
            }
        }
        return false;
    }

  private:
    std::vector<std::string> args_;
    std::map<size_t, bool> used_;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        PIBE_FATAL("cannot open ", path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        PIBE_FATAL("cannot write ", path);
    out << contents;
}

/**
 * The one verification choke point for module input: every subcommand
 * that consumes PIR text funnels through here (or through check::
 * runChecks, which subsumes the verifier).
 */
ir::Module
parseAndVerify(const std::string& text, const std::string& context)
{
    ir::Module m = ir::parseModule(text);
    ir::verifyOrDie(m, context);
    return m;
}

ir::Module
loadModule(const std::string& path)
{
    return parseAndVerify(readFile(path), path);
}

/** Split a comma-separated list; empty input yields an empty list. */
std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(s);
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** PIBE_SERVE_TOKEN, the fallback for every --auth-token flag. */
std::string
envAuthToken()
{
    const char* token = std::getenv("PIBE_SERVE_TOKEN");
    return token ? token : "";
}

harden::DefenseConfig
defenseByName(const std::string& name)
{
    // The library's registry is the one source of truth; the CLI only
    // adds the fatal-on-typo policy.
    if (std::optional<harden::DefenseConfig> defense =
            harden::defenseByName(name))
        return *defense;
    PIBE_FATAL("unknown defense '", name, "'");
}

std::vector<std::unique_ptr<workload::Workload>>
workloadByName(const std::string& name)
{
    std::vector<std::unique_ptr<workload::Workload>> suite;
    if (name == "lmbench") {
        suite = workload::makeLmbenchSuite();
    } else if (name == "apache") {
        suite.push_back(workload::makeApacheWorkload());
    } else if (name == "nginx") {
        suite.push_back(workload::makeNginxWorkload());
    } else if (name == "dbench") {
        suite.push_back(workload::makeDbenchWorkload());
    } else {
        suite.push_back(workload::makeLmbenchTest(name));
    }
    return suite;
}

int
cmdKernel(Args& args)
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = static_cast<uint32_t>(
        args.getUnsigned("--drivers", "448"));
    cfg.seed = args.getUnsigned("--seed", "42");
    kernel::KernelImage k = kernel::buildKernel(cfg);
    std::string out = args.get("-o", "kernel.pir");
    writeFile(out, ir::printModule(k.module));
    std::printf("wrote %s (%zu functions)\n", out.c_str(),
                k.module.numFunctions());
    return 0;
}

int
cmdProfile(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "kernel.pir"));
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    uint32_t iters = static_cast<uint32_t>(
        args.getUnsigned("--iters", "120"));
    profile::EdgeProfile profile;
    if (args.has("--train")) {
        // The canonical scaled training profile — the exact profile
        // the experiment engine and the serve daemon build from, so a
        // CLI run is byte-comparable with their cached artifacts.
        profile = core::collectLmbenchProfile(m, info, iters);
    } else {
        auto suite = workloadByName(args.get("--workload", "lmbench"));
        profile = core::collectProfile(m, info, suite, iters);
    }
    std::string out = args.get("-o", "profile.txt");
    writeFile(out, profile::serializeProfile(m, profile));
    std::printf("wrote %s (%zu direct sites, %zu indirect sites)\n",
                out.c_str(), profile.numDirectSites(),
                profile.numIndirectSites());
    return 0;
}

int
cmdOptimize(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "kernel.pir"));
    auto profile =
        profile::liftProfile(m, readFile(args.get("-p", "profile.txt")));

    core::OptConfig opt;
    opt.icp_budget = args.getReal("--icp-budget", "0.99999");
    opt.inline_budget = args.getReal("--inline-budget", "0.999999");
    opt.lax_heuristics = args.has("--lax");
    std::string inliner = args.get("--inliner", "pibe");
    if (inliner == "pibe")
        opt.inliner = core::InlinerKind::kPibe;
    else if (inliner == "default")
        opt.inliner = core::InlinerKind::kDefaultLlvm;
    else if (inliner == "none")
        opt.inliner = core::InlinerKind::kNone;
    else
        PIBE_FATAL("unknown inliner '", inliner, "'");

    harden::DefenseConfig defense =
        defenseByName(args.get("--defense", "all"));

    core::BuildReport report;
    ir::Module image =
        core::buildImage(m, profile, opt, defense, &report);
    std::string out = args.get("-o", "image.pir");
    writeFile(out, ir::printModule(image));
    std::printf("wrote %s\n", out.c_str());
    if (args.has("--report")) {
        std::printf("  promoted: %u targets at %u sites\n",
                    report.icp.promoted_targets,
                    report.icp.promoted_sites);
        std::printf("  inlined:  %u sites (%llu weight)\n",
                    report.inlining.inlined_sites,
                    static_cast<unsigned long long>(
                        report.inlining.inlined_weight));
        std::printf("  coverage: %u protected icalls, %u vulnerable "
                    "icalls, %u vulnerable ijumps\n",
                    report.coverage.protected_icalls,
                    report.coverage.vulnerable_icalls,
                    report.coverage.vulnerable_ijumps);
        std::printf("  size:     %llu -> %llu bytes\n",
                    static_cast<unsigned long long>(
                        report.baseline_image_size),
                    static_cast<unsigned long long>(report.image_size));
    }
    return 0;
}

int
cmdMeasure(Args& args)
{
    const std::string image_path = args.get("-m", "image.pir");
    const std::string image_text = readFile(image_path);
    ir::Module m = parseAndVerify(image_text, image_path);
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    std::string test = args.get("--test", "all");
    std::string baseline_path = args.get("--baseline");
    unsigned jobs = static_cast<unsigned>(args.getUnsigned("--jobs", "1"));
    std::string cache_dir = args.get("--cache-dir");
    const std::string decode_stats_json =
        args.get("--decode-stats-json");
    const bool decode_stats =
        args.has("--decode-stats") || !decode_stats_json.empty();

    const Stopwatch decode_timer;
    const auto decoded = std::make_shared<const uarch::DecodedModule>(m);
    const double decode_ms = decode_timer.ms();

    runtime::ArtifactCache cache;
    if (!cache_dir.empty())
        cache.setDiskDir(cache_dir);

    std::vector<std::string> tests;
    if (test == "all") {
        for (const auto& wl : workload::makeLmbenchSuite())
            tests.push_back(wl->name());
    } else {
        tests.push_back(test);
    }

    std::string base_text;
    std::unique_ptr<ir::Module> base_mod;
    kernel::KernelInfo base_info;
    std::shared_ptr<const uarch::DecodedModule> base_decoded;
    if (!baseline_path.empty()) {
        base_text = readFile(baseline_path);
        base_mod = std::make_unique<ir::Module>(
            parseAndVerify(base_text, baseline_path));
        base_info = kernel::kernelInfoFromModule(*base_mod);
        base_decoded =
            std::make_shared<const uarch::DecodedModule>(*base_mod);
    }

    // One job per (image, test), each writing its own pre-sized slot;
    // results are position-addressed so --jobs N output is identical
    // to serial.
    const core::MeasureConfig config;
    std::vector<double> lat(tests.size());
    std::vector<double> base_lat(tests.size());
    std::vector<uint64_t> run_insts(tests.size());
    std::vector<runtime::JobId> run_job(tests.size());
    std::vector<std::array<uint64_t, uarch::kNumFusedFamilies>>
        run_fused(tests.size());
    runtime::JobGraph graph;
    for (size_t i = 0; i < tests.size(); ++i) {
        run_job[i] = graph.add(
            "measure:" + tests[i], [&, i](const runtime::JobContext&) {
                const core::Measurement meas = core::measureWorkloadCached(
                    image_text, decoded, info, tests[i], config, &cache);
                lat[i] = meas.latency_us;
                run_insts[i] = meas.stats.instructions;
                run_fused[i] = meas.stats.fused;
            });
        if (base_mod) {
            graph.add("baseline:" + tests[i],
                      [&, i](const runtime::JobContext&) {
                          base_lat[i] =
                              core::measureWorkloadCached(
                                  base_text, base_decoded, base_info,
                                  tests[i], config, &cache)
                                  .latency_us;
                      });
        }
    }
    runtime::ThreadPool pool(std::max(1u, jobs));
    graph.run(pool);
    pool.shutdown();

    Table t(baseline_path.empty()
                ? std::vector<std::string>{"Test", "latency (us)"}
                : std::vector<std::string>{"Test", "latency (us)",
                                           "overhead"});
    std::vector<double> overheads;
    for (size_t i = 0; i < tests.size(); ++i) {
        std::vector<std::string> row{tests[i], fixedStr(lat[i], 3)};
        if (base_mod) {
            double o = overhead(lat[i], base_lat[i]);
            overheads.push_back(o);
            row.push_back(percent(o));
        }
        t.addRow(row);
    }
    if (overheads.size() > 1) {
        t.addSeparator();
        t.addRow({"Geometric Mean", "-",
                  percent(geomeanOverhead(overheads))});
    }
    std::printf("%s", t.render().c_str());

    if (decode_stats) {
        // Host-side interpreter throughput: simulated instructions per
        // host second of each measurement run (warmup + measured
        // phases). A cache hit replays stored counters without
        // interpreting, which shows up as an absurd rate — run with a
        // cold cache for meaningful numbers.
        Table dt({"Test", "sim insts", "run (ms)", "MIPS"});
        for (size_t i = 0; i < tests.size(); ++i) {
            const double run_ms = graph.metrics()[run_job[i]].run_ms;
            const double mips =
                run_ms > 0 ? static_cast<double>(run_insts[i]) /
                                 (run_ms * 1e3)
                           : 0;
            dt.addRow({tests[i], std::to_string(run_insts[i]),
                       fixedStr(run_ms, 2), fixedStr(mips, 1)});
        }
        dt.addSeparator();
        dt.addRow({"decode time (ms)", "-", fixedStr(decode_ms, 2),
                   "-"});
        dt.addRow({"decoded stream",
                   std::to_string(decoded->decodedBytes()) + " bytes",
                   "-", "-"});
        dt.addRow({"decoded insts",
                   std::to_string(decoded->code().size()), "-", "-"});
        std::printf("\ndecode stats:\n%s", dt.render().c_str());

        // The evidence the superinstruction set was selected from:
        // static opcode and intra-block digram histograms, plus how
        // often each fusion family fired statically (rewritten sites)
        // and dynamically (superinstruction executions summed over
        // the measured workloads).
        const uarch::DecodeStats& ds = decoded->decodeStats();
        Table ot({"opcode", "static count"});
        for (size_t o = 0; o < uarch::kNumIrOpcodes; ++o) {
            if (ds.op_count[o] == 0)
                continue;
            ot.addRow({ir::opcodeName(static_cast<ir::Opcode>(o)),
                       std::to_string(ds.op_count[o])});
        }
        std::printf("\nopcode histogram:\n%s", ot.render().c_str());

        struct Digram
        {
            uint64_t n;
            size_t a, b;
        };
        std::vector<Digram> digrams;
        for (size_t a = 0; a < uarch::kNumIrOpcodes; ++a)
            for (size_t b = 0; b < uarch::kNumIrOpcodes; ++b)
                if (ds.digram[a][b] > 0)
                    digrams.push_back({ds.digram[a][b], a, b});
        std::sort(digrams.begin(), digrams.end(),
                  [](const Digram& x, const Digram& y) {
                      return x.n > y.n;
                  });
        Table gt({"digram", "static count"});
        for (size_t i = 0; i < digrams.size() && i < 12; ++i) {
            gt.addRow(
                {std::string(ir::opcodeName(
                     static_cast<ir::Opcode>(digrams[i].a))) +
                     "+" +
                     ir::opcodeName(
                         static_cast<ir::Opcode>(digrams[i].b)),
                 std::to_string(digrams[i].n)});
        }
        std::printf("\ntop intra-block digrams:\n%s",
                    gt.render().c_str());

        std::array<uint64_t, uarch::kNumFusedFamilies> fused_execs{};
        for (const auto& per_test : run_fused)
            for (size_t f = 0; f < uarch::kNumFusedFamilies; ++f)
                fused_execs[f] += per_test[f];
        Table ft({"fused family", "static sites", "dynamic execs"});
        for (size_t f = 0; f < uarch::kNumFusedFamilies; ++f) {
            ft.addRow({uarch::fusedFamilyName(
                           static_cast<uarch::FusedFamily>(f)),
                       std::to_string(ds.fused_sites[f]),
                       std::to_string(fused_execs[f])});
        }
        ft.addSeparator();
        ft.addRow({"total pairs", std::to_string(ds.fused_pairs),
                   "-"});
        std::printf("\nsuperinstruction fusion:\n%s",
                    ft.render().c_str());

        if (!decode_stats_json.empty()) {
            Json doc = uarch::decodeStatsJson(*decoded, fused_execs);
            doc.set("decode_ms", decode_ms);
            writeFile(decode_stats_json, doc.dump() + "\n");
            std::printf("decode stats json -> %s\n",
                        decode_stats_json.c_str());
        }
    }
    return 0;
}

int
cmdAttack(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "image.pir"));
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    std::string kind_name = args.get("--kind", "all");
    std::vector<uarch::AttackKind> kinds;
    if (kind_name == "all") {
        kinds = {uarch::AttackKind::kSpectreV2,
                 uarch::AttackKind::kRet2spec, uarch::AttackKind::kLvi};
    } else if (kind_name == "spectre-v2") {
        kinds = {uarch::AttackKind::kSpectreV2};
    } else if (kind_name == "ret2spec") {
        kinds = {uarch::AttackKind::kRet2spec};
    } else if (kind_name == "lvi") {
        kinds = {uarch::AttackKind::kLvi};
    } else {
        PIBE_FATAL("unknown attack kind '", kind_name, "'");
    }
    for (uarch::AttackKind kind : kinds) {
        uarch::Simulator sim(m);
        sim.setTimingEnabled(false);
        ir::FuncId gadget = m.findFunction("drv0_h0");
        if (gadget == ir::kInvalidFunc)
            gadget = info.kernel_init;
        uarch::TransientAttacker attacker(
            kind, sim.layout().funcBase(gadget));
        workload::KernelHandle handle(sim, info);
        handle.boot();
        auto wl = workload::makeLmbenchTest("read");
        wl->setup(handle);
        sim.setObserver(&attacker);
        for (uint64_t i = 0; i < 300; ++i)
            wl->iteration(handle, i);
        std::printf("%-12s %llu gadget hits over %llu events -> %s\n",
                    uarch::attackKindName(kind),
                    static_cast<unsigned long long>(
                        attacker.gadgetHits()),
                    static_cast<unsigned long long>(
                        attacker.eventsObserved()),
                    attacker.gadgetHits() == 0 ? "blocked"
                                               : "VULNERABLE");
    }
    return 0;
}

int
cmdStats(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "image.pir"));
    uint32_t icalls = 0, rets = 0, switches = 0, asm_sites = 0,
             hardened = 0;
    size_t insts = 0;
    for (const auto& f : m.functions()) {
        insts += f.instructionCount();
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                switch (inst.op) {
                  case ir::Opcode::kICall:
                    ++icalls;
                    asm_sites += inst.is_asm;
                    hardened +=
                        inst.fwd_scheme != ir::FwdScheme::kNone;
                    break;
                  case ir::Opcode::kRet:
                    ++rets;
                    hardened +=
                        inst.ret_scheme != ir::RetScheme::kNone;
                    break;
                  case ir::Opcode::kSwitch:
                    ++switches;
                    asm_sites += inst.is_asm;
                    break;
                  default:
                    break;
                }
            }
        }
    }
    analysis::CodeLayout layout(m);
    std::printf("functions:        %zu\n", m.numFunctions());
    std::printf("instructions:     %zu\n", insts);
    std::printf("indirect calls:   %u\n", icalls);
    std::printf("returns:          %u\n", rets);
    std::printf("switches:         %u\n", switches);
    std::printf("asm sites:        %u\n", asm_sites);
    std::printf("hardened sites:   %u\n", hardened);
    std::printf("image size:       %llu bytes\n",
                static_cast<unsigned long long>(layout.imageSize()));
    return 0;
}

int
cmdCheck(Args& args)
{
    const std::string path = args.get("-m", "kernel.pir");
    // Deliberately no parseAndVerify: the suite reports verifier
    // findings as diagnostics instead of dying on the first one.
    ir::Module m = ir::parseModule(readFile(path));

    check::CheckOptions opts;
    // Feasible-target validation is on by default: it needs no extra
    // inputs and is the translation-validation layer for ICP guard
    // chains and op-table entries.
    opts.targets = true;
    profile::EdgeProfile prof;
    const std::string prof_path = args.get("-p");
    if (!prof_path.empty()) {
        prof = profile::liftProfile(m, readFile(prof_path));
        opts.profile = &prof;
        opts.profile_flow = true;
    }
    const std::string defense_name = args.get("--defense");
    if (!defense_name.empty()) {
        opts.defense = defenseByName(defense_name);
        opts.coverage = true;
    }
    const std::string checks = args.get("--checks");
    if (!checks.empty()) {
        opts.verify = opts.lint = opts.coverage = opts.profile_flow =
            opts.targets = false;
        for (const std::string& c : splitList(checks)) {
            if (c == "verify")
                opts.verify = true;
            else if (c == "lint")
                opts.lint = true;
            else if (c == "coverage")
                opts.coverage = true;
            else if (c == "profile")
                opts.profile_flow = true;
            else if (c == "targets")
                opts.targets = true;
            else
                PIBE_FATAL("unknown check group '", c,
                           "' (expected verify, lint, coverage, "
                           "profile, targets)");
        }
        if (opts.profile_flow && !opts.profile)
            PIBE_FATAL("--checks profile requires -p <profile>");
        if (opts.coverage && defense_name.empty())
            PIBE_FATAL("--checks coverage requires --defense <name>");
    }
    opts.roots = splitList(args.get("--roots"));
    opts.allowed_funcs = splitList(args.get("--allow-func"));
    for (const std::string& s : splitList(args.get("--allow-site")))
        opts.allowed_sites.push_back(
            static_cast<ir::SiteId>(parseUnsigned("--allow-site", s)));

    const std::string fail_on = args.get("--fail-on", "error");
    std::optional<check::Severity> threshold =
        check::severityFromName(fail_on);
    if (!threshold)
        PIBE_FATAL("unknown --fail-on '", fail_on,
                   "' (expected note, warn, or error)");

    const size_t jobs =
        std::max<size_t>(1, args.getUnsigned("--jobs", "1"));

    // The per-function checks fan out over a pool of `jobs` workers;
    // the report is byte-identical at every jobs count, and pass/fail
    // is the ok() verdict runChecksWithPolicy gives the serve daemon.
    check::AnalysisManager am(m);
    runtime::ThreadPool pool(jobs);
    const check::CheckReport report =
        check::runChecksParallel(m, opts, pool, 64, &am);
    const bool passed = report.ok(*threshold);

    // --timing: per-phase wall times plus the target-set solver
    // counters, as one JSON object (merged into BENCH_scale.json by
    // tools/run_all_tables.sh).
    Json timing;
    if (args.has("--timing")) {
        Json groups = Json::array();
        for (const auto& [name, ms] : report.group_ms) {
            Json g = Json::object();
            g.set("name", name);
            g.set("ms", ms);
            groups.push(std::move(g));
        }
        timing.set("jobs", jobs);
        timing.set("groups", std::move(groups));
        if (opts.targets) {
            const check::SolverStats& ss =
                am.targetSets(opts.roots).solverStats();
            Json solver = Json::object();
            solver.set("nodes", ss.nodes);
            solver.set("pops", ss.pops);
            timing.set("solver", std::move(solver));
        }
    }

    if (args.has("--json")) {
        Json diags = Json::array();
        for (const check::Diagnostic& d : report.diags)
            diags.push(d.toJson());
        Json doc = Json::object();
        doc.set("module", path);
        doc.set("errors", report.errors());
        doc.set("warnings", report.warnings());
        doc.set("notes", report.notes());
        doc.set("passed", passed);
        if (!timing.isNull())
            doc.set("timing", std::move(timing));
        doc.set("diagnostics", std::move(diags));
        std::printf("%s\n", doc.dump().c_str());
    } else {
        std::printf("%s", check::renderText(report.diags).c_str());
        if (!timing.isNull())
            std::printf("timing: %s\n", timing.dump().c_str());
        std::printf("%s: %zu error(s), %zu warning(s), %zu note(s)\n",
                    path.c_str(), report.errors(), report.warnings(),
                    report.notes());
    }
    return passed ? 0 : 1;
}

/**
 * `pibe surface` — run the interprocedural target-set analysis and
 * report the residual attack surface per defense configuration: how
 * many indirect call sites each forward-edge scheme leaves reachable,
 * the feasible-set size distribution, and the AIR-style score. The
 * structural verifiers and target-set checkers gate the report, so a
 * module that fails translation validation exits nonzero.
 */
int
cmdSurface(Args& args)
{
    const std::string path = args.get("-m", "kernel.pir");
    ir::Module m = ir::parseModule(readFile(path));

    check::CheckOptions opts;
    opts.lint = false; // style findings are noise for an audit report
    opts.targets = true;
    profile::EdgeProfile prof;
    const std::string prof_path = args.get("-p");
    if (!prof_path.empty()) {
        // With a profile, coverage.targets additionally proves every
        // observed target lies inside its site's static set.
        prof = profile::liftProfile(m, readFile(prof_path));
        opts.profile = &prof;
    }
    opts.roots = splitList(args.get("--roots"));

    const std::string fail_on = args.get("--fail-on", "error");
    std::optional<check::Severity> threshold =
        check::severityFromName(fail_on);
    if (!threshold)
        PIBE_FATAL("unknown --fail-on '", fail_on,
                   "' (expected note, warn, or error)");
    const uint32_t max_targets = static_cast<uint32_t>(
        args.getUnsigned("--max-targets", "8"));

    // Share one AnalysisManager between the checkers and the report so
    // the points-to solve runs once.
    check::AnalysisManager am(m);
    check::CheckOutcome outcome =
        check::runChecksWithPolicy(m, opts, *threshold, &am);
    if (!outcome.report.diags.empty())
        std::printf("%s",
                    check::renderText(outcome.report.diags).c_str());

    check::SurfaceReport rep =
        check::buildSurfaceReport(am.targetSets(opts.roots), max_targets);
    rep.module_name = path;
    std::printf("%s", check::renderSurfaceText(rep).c_str());

    const std::string json_path = args.get("--json");
    if (!json_path.empty()) {
        writeFile(json_path, check::toJson(rep).dump() + "\n");
        std::printf("wrote %s\n", json_path.c_str());
    }
    return outcome.passed ? 0 : 1;
}

int
cmdGenkernel(Args& args)
{
    scale::ScaleConfig cfg;
    cfg.target_insts = args.getUnsigned("--insts", "100000");
    cfg.seed = args.getUnsigned("--seed", "42");
    cfg.depth =
        static_cast<uint32_t>(args.getUnsigned("--depth", "10"));
    cfg.fanout = args.getReal("--fanout", "2.5");
    cfg.icalls_per_kinst = args.getReal("--icalls-per-kinst", "7.0");
    cfg.ops_per_table = static_cast<uint32_t>(
        args.getUnsigned("--ops-per-table", "7"));
    cfg.num_entry_points = static_cast<uint32_t>(
        args.getUnsigned("--entry-points", "32"));
    const std::string mix = args.get("--mix");
    if (!mix.empty()) {
        std::vector<std::string> parts = splitList(mix);
        if (parts.size() != 4)
            PIBE_FATAL("--mix wants four fractions "
                       "(core,fs,net,drivers), got '",
                       mix, "'");
        cfg.frac_core = parseReal("--mix", parts[0]);
        cfg.frac_fs = parseReal("--mix", parts[1]);
        cfg.frac_net = parseReal("--mix", parts[2]);
        cfg.frac_drivers = parseReal("--mix", parts[3]);
    }

    scale::ScaleStats stats;
    const Stopwatch gen_timer;
    ir::Module m = scale::buildScaleModule(cfg, &stats);
    const double gen_ms = gen_timer.ms();

    const std::string out = args.get("-o", "scale_kernel.pir");
    writeFile(out, ir::printModule(m));

    const std::string prof_path = args.get("--profile");
    if (!prof_path.empty()) {
        scale::SyntheticProfileConfig pcfg;
        pcfg.seed = cfg.seed;
        pcfg.root_invocations =
            args.getUnsigned("--root-invocations", "1048576");
        profile::EdgeProfile prof = scale::synthesizeProfile(m, pcfg);
        writeFile(prof_path, profile::serializeProfile(m, prof));
    }

    std::printf("wrote %s (%.0f ms)\n", out.c_str(), gen_ms);
    std::printf("functions:      %llu\n",
                static_cast<unsigned long long>(stats.num_functions));
    std::printf("instructions:   %llu\n",
                static_cast<unsigned long long>(stats.num_insts));
    std::printf("call sites:     %llu\n",
                static_cast<unsigned long long>(stats.call_sites));
    std::printf("icall sites:    %llu (%llu asm)\n",
                static_cast<unsigned long long>(stats.icall_sites),
                static_cast<unsigned long long>(stats.asm_icall_sites));
    std::printf("return sites:   %llu\n",
                static_cast<unsigned long long>(stats.ret_sites));
    std::printf("switches:       %llu\n",
                static_cast<unsigned long long>(stats.switch_sites));
    std::printf("op tables:      %llu (%llu globals)\n",
                static_cast<unsigned long long>(stats.num_tables),
                static_cast<unsigned long long>(stats.num_globals));
    if (!prof_path.empty())
        std::printf("profile:        %s\n", prof_path.c_str());
    return 0;
}

/** One scalebench leg: the paper pipeline build plus one audit. */
struct ScaleLeg
{
    uint32_t promoted_sites = 0;
    uint32_t inlined_sites = 0;
    uint64_t baseline_image_size = 0;
    uint64_t image_size = 0;
    check::CheckReport checks;
    std::string digest;        ///< core::moduleDigest of the image.
    double build_ms = 0;       ///< core::buildImage, wall.
    double check_ms = 0;       ///< check::runChecksParallel, wall.
};

/**
 * Build the hardened image with core::buildImage (sandwich off — the
 * audit runs once, at the end) and audit it with
 * check::runChecksParallel on `pool`. The image and its transformed
 * profile are freed before returning, so peak RSS reflects one image
 * in flight.
 */
ScaleLeg
runScaleLeg(const ir::Module& m, const profile::EdgeProfile& prof,
            runtime::ThreadPool& pool)
{
    ScaleLeg leg;
    core::OptConfig opt;
    opt.sandwich = false;
    core::BuildReport rep;
    Stopwatch stage;
    const ir::Module image = core::buildImage(
        m, prof, opt, harden::DefenseConfig::all(), &rep);
    leg.build_ms = stage.lapMs();
    check::CheckOptions copts;
    copts.coverage = true;
    copts.targets = true;
    copts.defense = harden::DefenseConfig::all();
    leg.checks = check::runChecksParallel(image, copts, pool);
    leg.check_ms = stage.lapMs();
    leg.digest = core::moduleDigest(image);
    leg.promoted_sites = rep.icp.promoted_sites;
    leg.inlined_sites = rep.inlining.inlined_sites;
    leg.baseline_image_size = rep.baseline_image_size;
    leg.image_size = rep.image_size;
    return leg;
}

/**
 * Calibration probe: a fixed CPU-bound job (32M digest updates) run
 * once on the calling thread, then once per worker on `pool` at the
 * same time. Returns the lone job's wall time and the effective
 * parallelism, total work over concurrent wall time — what the
 * machine lent the parallel leg right now, so a speedup can be read
 * against it.
 */
std::pair<double, double>
calibrationProbe(runtime::ThreadPool& pool)
{
    auto job = [] {
        runtime::Digest d;
        for (uint64_t i = 0; i < 32000000; ++i)
            d.add(i);
        return d.hex();
    };
    Stopwatch probe;
    volatile size_t sink = job().size();
    const double one_ms = probe.lapMs();
    std::vector<std::future<std::string>> futures;
    for (size_t i = 0; i < pool.size(); ++i)
        futures.push_back(pool.submit(job));
    for (auto& f : futures)
        sink = f.get().size();
    (void)sink;
    const double all_ms = probe.lapMs();
    return {one_ms, one_ms * static_cast<double>(pool.size()) / all_ms};
}

/**
 * One fork-isolated scalebench measurement: generate a module of
 * `insts` instructions, synthesize its profile, run the paper pipeline
 * once on a one-worker pool and once on a `jobs`-worker pool (the
 * calibration probe runs right before the parallel leg), and write
 * one JSON object with timings, digests, and audit counters to `fd`.
 * Runs in the child so the parent can read peak RSS from wait4().
 * Both pools exist before any timed region, so thread start-up is
 * not measured.
 */
void
runScalebenchChild(uint64_t insts, uint64_t seed, size_t jobs, int fd)
{
    scale::ScaleConfig cfg;
    cfg.target_insts = insts;
    cfg.seed = seed;
    scale::ScaleStats stats;
    Stopwatch stage;
    const ir::Module m = scale::buildScaleModule(cfg, &stats);
    const double gen_ms = stage.lapMs();

    scale::SyntheticProfileConfig pcfg;
    pcfg.seed = seed;
    const profile::EdgeProfile prof = scale::synthesizeProfile(m, pcfg);
    const double profile_ms = stage.lapMs();

    runtime::ThreadPool one(1);
    runtime::ThreadPool pool(jobs);

    const ScaleLeg serial = runScaleLeg(m, prof, one);
    const auto [probe_ms, parallelism] = calibrationProbe(pool);
    const ScaleLeg par = runScaleLeg(m, prof, pool);

    const double serial_ms = serial.build_ms + serial.check_ms;
    const double par_ms = par.build_ms + par.check_ms;
    const bool match =
        serial.digest == par.digest &&
        check::renderText(serial.checks.diags) ==
            check::renderText(par.checks.diags);
    Json row = Json::object();
    row.set("target_insts", insts);
    row.set("insts", stats.num_insts);
    row.set("functions", stats.num_functions);
    row.set("icall_sites", stats.icall_sites);
    row.set("gen_ms", gen_ms);
    row.set("profile_ms", profile_ms);
    row.set("serial_build_ms", serial_ms);
    row.set("parallel_build_ms", par_ms);
    row.set("speedup", par_ms > 0 ? serial_ms / par_ms : 0.0);
    row.set("probe_ms", probe_ms);
    row.set("parallelism", parallelism);
    row.set("build_ms", serial.build_ms);
    row.set("check_ms", serial.check_ms);
    row.set("parallel_check_ms", par.check_ms);
    row.set("promoted_sites", serial.promoted_sites);
    row.set("inlined_sites", serial.inlined_sites);
    row.set("check_errors", serial.checks.errors());
    row.set("baseline_image_size", serial.baseline_image_size);
    row.set("image_size", serial.image_size);
    row.set("digest", serial.digest);
    row.set("digests_match", match);
    dprintf(fd, "%s", row.dump().c_str());
}

int
cmdScalebench(Args& args)
{
    const std::string out = args.get("--out", "BENCH_scale.json");
    const uint64_t seed = args.getUnsigned("--seed", "42");
    size_t jobs = args.getUnsigned("--jobs", "0");
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs < 2)
            jobs = 2; // exercise the parallel path even on one core
    }
    std::vector<uint64_t> sizes;
    for (const std::string& s : splitList(
             args.get("--sizes", "10000,32000,100000,320000,1000000")))
        sizes.push_back(parseUnsigned("--sizes", s));
    if (sizes.size() < 2)
        PIBE_FATAL("scalebench needs at least two --sizes");

    std::vector<Json> rows;
    bool all_match = true;
    for (uint64_t n : sizes) {
        int fds[2];
        if (pipe(fds) != 0)
            PIBE_FATAL("pipe() failed");
        std::fflush(stdout); // the child must not re-emit buffered rows
        const pid_t pid = fork();
        if (pid < 0)
            PIBE_FATAL("fork() failed");
        if (pid == 0) {
            close(fds[0]);
            runScalebenchChild(n, seed, jobs, fds[1]);
            close(fds[1]);
            _exit(0);
        }
        close(fds[1]);
        std::string text;
        char buf[4096];
        ssize_t got;
        while ((got = read(fds[0], buf, sizeof buf)) > 0)
            text.append(buf, static_cast<size_t>(got));
        close(fds[0]);
        int status = 0;
        struct rusage ru = {};
        if (wait4(pid, &status, 0, &ru) != pid ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            PIBE_FATAL("scalebench child for ", n, " insts failed");
        std::optional<Json> row = Json::parse(text);
        if (!row || !row->isObject())
            PIBE_FATAL("scalebench child emitted bad JSON: ", text);

        row->set("maxrss_kb", ru.ru_maxrss); // Linux reports KiB
        all_match = all_match && (*row)["digests_match"].asBool();
        std::printf("  %8llu insts: gen %6.0f ms, build %7.0f ms "
                    "(x%.2f with %zu jobs, parallelism %.2f), "
                    "rss %ld MiB, errors %lld, digests %s\n",
                    static_cast<unsigned long long>(n),
                    (*row)["gen_ms"].asDouble(),
                    (*row)["serial_build_ms"].asDouble(),
                    (*row)["speedup"].asDouble(), jobs,
                    (*row)["parallelism"].asDouble(),
                    ru.ru_maxrss / 1024,
                    static_cast<long long>((*row)["check_errors"].asInt()),
                    (*row)["digests_match"].asBool() ? "match" : "DIFFER");
        rows.push_back(std::move(*row));
    }

    // Scaling exponents between consecutive sizes: e in t ~ n^e. An
    // exponent meaningfully above 1 flags a superlinear blow-up.
    double max_time_exp = 0;
    double max_rss_exp = 0;
    Json sizes_json = Json::array();
    for (size_t i = 0; i < rows.size(); ++i) {
        double time_exp = 0;
        double rss_exp = 0;
        auto ratio = [&](const char* key) {
            return rows[i][key].asDouble() /
                   std::max(1.0, rows[i - 1][key].asDouble());
        };
        if (i > 0 && ratio("insts") > 1) {
            const double log_n = std::log(ratio("insts"));
            time_exp =
                std::log(std::max(ratio("serial_build_ms"), 1e-9)) /
                log_n;
            rss_exp = std::log(std::max(ratio("maxrss_kb"), 1e-9)) /
                      log_n;
            max_time_exp = std::max(max_time_exp, time_exp);
            max_rss_exp = std::max(max_rss_exp, rss_exp);
        }
        rows[i].set("time_scaling_exponent", time_exp);
        rows[i].set("rss_scaling_exponent", rss_exp);
        sizes_json.push(rows[i]);
    }

    Json doc = Json::object();
    doc.set("bench", "scale");
    doc.set("seed", seed);
    doc.set("jobs", jobs);
    doc.set("nproc", std::thread::hardware_concurrency());
    doc.set("all_digests_match", all_match);
    doc.set("max_time_scaling_exponent", max_time_exp);
    doc.set("max_rss_scaling_exponent", max_rss_exp);
    doc.set("sizes", std::move(sizes_json));
    writeFile(out, doc.dump() + "\n");

    std::printf("wrote %s (max time exponent %.2f, max rss exponent "
                "%.2f, digests %s)\n",
                out.c_str(), max_time_exp, max_rss_exp,
                all_match ? "all match" : "MISMATCH");
    return all_match ? 0 : 1;
}

/** Signal target of `pibe serve` (one daemon per process). */
serve::Server* g_server = nullptr;

void
handleStopSignal(int)
{
    if (g_server)
        g_server->requestStopFromSignal(); // atomic store only
}

int
cmdServe(Args& args)
{
    serve::ServeOptions opts;
    opts.socket_path = args.get("--socket", "/tmp/pibe-serve.sock");
    const std::string tcp = args.get("--tcp");
    if (!tcp.empty())
        opts.tcp_port = static_cast<int>(parseUnsigned("--tcp", tcp));
    opts.jobs = static_cast<unsigned>(args.getUnsigned("--jobs", "0"));
    opts.cache_dir = args.get("--cache-dir");
    opts.cache_budget = args.getUnsigned("--cache-budget", "0");
    opts.kernel.num_drivers = static_cast<uint32_t>(
        args.getUnsigned("--drivers", "448"));
    opts.kernel.seed = args.getUnsigned("--seed", "42");
    opts.profile_base_iters = static_cast<uint32_t>(
        args.getUnsigned("--profile-iters", "120"));
    opts.max_inflight = static_cast<unsigned>(
        args.getUnsigned("--max-inflight", "0"));
    opts.default_defense = args.get("--defense", "all");
    opts.fail_on = args.get("--fail-on", "error");
    opts.auth_token = args.get("--auth-token", envAuthToken());

    serve::Server server(std::move(opts));
    if (!server.start())
        return 1;
    g_server = &server;
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    server.wait();
    g_server = nullptr;
    return 0;
}

int
cmdLoadgen(Args& args)
{
    serve::LoadgenOptions opts;
    opts.socket_path = args.get("--socket", "/tmp/pibe-serve.sock");
    const std::string tcp = args.get("--tcp");
    if (!tcp.empty()) {
        opts.tcp_port = static_cast<int>(parseUnsigned("--tcp", tcp));
        opts.socket_path = args.get("--socket");
    }
    opts.requests = static_cast<uint32_t>(
        args.getUnsigned("--requests", "500"));
    opts.clients = std::max(
        1u, static_cast<uint32_t>(args.getUnsigned("--clients", "8")));
    opts.seed = args.getUnsigned("--seed", "1");
    opts.image_variants = static_cast<uint32_t>(
        args.getUnsigned("--variants", "2"));
    opts.verify =
        static_cast<uint32_t>(args.getUnsigned("--verify", "0"));
    opts.out_path = args.get("--out", "BENCH_serve.json");
    opts.auth_token = args.get("--auth-token", envAuthToken());
    return serve::runLoadgen(opts);
}

int
cmdClient(Args& args)
{
    const std::string op = args.get("--op", "ping");
    Json params = Json::object();
    const std::string params_text = args.get("--params");
    if (!params_text.empty()) {
        std::optional<Json> parsed =
            Json::parse(params_text);
        if (!parsed || !parsed->isObject())
            PIBE_FATAL("--params is not a JSON object: ", params_text);
        params = *parsed;
    }

    serve::Client client;
    const std::string tcp = args.get("--tcp");
    bool connected = false;
    if (!tcp.empty())
        connected = client.connectTcp(
            static_cast<uint16_t>(parseUnsigned("--tcp", tcp)));
    else
        connected = client.connectUnix(
            args.get("--socket", "/tmp/pibe-serve.sock"));
    if (!connected)
        PIBE_FATAL("cannot connect to the serve daemon");

    const std::string token =
        args.get("--auth-token", envAuthToken());
    if (!token.empty()) {
        std::string auth_error;
        if (!client.authenticate(token, &auth_error))
            PIBE_FATAL("authentication failed: ", auth_error);
    }

    std::optional<Json> response = client.call(op, params);
    if (!response)
        PIBE_FATAL("transport failure talking to the daemon");
    const std::string save = args.get("--save-text");
    if (!save.empty()) {
        // Pull a large text artifact (e.g. optimize --want_text) out
        // of the response instead of dumping it to the terminal.
        writeFile(save, (*response)["result"]["text"].asString());
        std::printf("wrote %s\n", save.c_str());
    } else {
        std::printf("%s\n", response->dump().c_str());
    }
    return (*response)["ok"].asBool(false) ? 0 : 1;
}

int
cmdSelftest()
{
    // The full workflow in a temp directory.
    const std::string dir = "/tmp/pibe_cli_selftest";
    std::string mkdir = "mkdir -p " + dir;
    if (std::system(mkdir.c_str()) != 0)
        PIBE_FATAL("cannot create ", dir);

    kernel::KernelConfig cfg;
    cfg.num_drivers = 8;
    kernel::KernelImage k = kernel::buildKernel(cfg);
    writeFile(dir + "/kernel.pir", ir::printModule(k.module));

    ir::Module m = loadModule(dir + "/kernel.pir");
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    auto suite = workload::makeLmbenchSuite();
    auto profile = core::collectProfile(m, info, suite, 25);
    writeFile(dir + "/profile.txt",
              profile::serializeProfile(m, profile));

    auto lifted =
        profile::liftProfile(m, readFile(dir + "/profile.txt"));
    core::BuildReport report;
    ir::Module image = core::buildImage(
        m, lifted, core::OptConfig::icpAndInline(0.999),
        harden::DefenseConfig::all(), &report);
    writeFile(dir + "/image.pir", ir::printModule(image));

    ir::Module reloaded = loadModule(dir + "/image.pir");
    kernel::KernelInfo rinfo = kernel::kernelInfoFromModule(reloaded);
    uarch::Simulator sim(reloaded);
    workload::KernelHandle handle(sim, rinfo);
    handle.boot();
    int64_t pid = handle.syscall(kernel::sysno::kNull);
    if (pid != 1)
        PIBE_FATAL("selftest: reloaded kernel misbehaves (pid=", pid,
                   ")");
    if (report.inlining.inlined_sites == 0)
        PIBE_FATAL("selftest: no inlining happened");

    // Audit the artifacts the workflow just produced: flow
    // conservation of the fresh profile against the input kernel, and
    // hardening coverage of the shipped image.
    check::CheckOptions popts;
    popts.profile_flow = true;
    popts.profile = &lifted;
    check::CheckReport pr = check::runChecks(m, popts);
    if (pr.errors() != 0)
        PIBE_FATAL("selftest: profile audit found ", pr.errors(),
                   " error(s): ", pr.diags.front().render());
    check::CheckOptions copts;
    copts.coverage = true;
    copts.defense = harden::DefenseConfig::all();
    check::CheckReport cr = check::runChecks(reloaded, copts);
    if (cr.errors() != 0)
        PIBE_FATAL("selftest: image audit found ", cr.errors(),
                   " error(s): ", cr.diags.front().render());

    std::printf("selftest OK (%s)\n", dir.c_str());
    return 0;
}

int
dispatch(const std::string& cmd, Args& args)
{
    if (cmd == "kernel")
        return cmdKernel(args);
    if (cmd == "profile")
        return cmdProfile(args);
    if (cmd == "optimize")
        return cmdOptimize(args);
    if (cmd == "measure")
        return cmdMeasure(args);
    if (cmd == "attack")
        return cmdAttack(args);
    if (cmd == "stats")
        return cmdStats(args);
    if (cmd == "check")
        return cmdCheck(args);
    if (cmd == "surface")
        return cmdSurface(args);
    if (cmd == "genkernel")
        return cmdGenkernel(args);
    if (cmd == "scalebench")
        return cmdScalebench(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "loadgen")
        return cmdLoadgen(args);
    if (cmd == "client")
        return cmdClient(args);
    if (cmd == "selftest")
        return cmdSelftest();
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}

int
run(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: pibe "
                     "<kernel|profile|optimize|measure|attack|stats|"
                     "check|surface|genkernel|scalebench|serve|loadgen|"
                     "client|selftest> [options]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    Args args(argc - 2, argv + 2);
    // Malformed numeric option values (parseUnsigned/parseReal) are
    // usage errors, not crashes.
    try {
        return dispatch(cmd, args);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "pibe %s: %s\n", cmd.c_str(), e.what());
    } catch (const std::out_of_range& e) {
        std::fprintf(stderr, "pibe %s: %s\n", cmd.c_str(), e.what());
    }
    return 2;
}

} // namespace
} // namespace pibe::cli

int
main(int argc, char** argv)
{
    return pibe::cli::run(argc, argv);
}
