#include "pibe/pipeline.h"

#include "analysis/layout.h"
#include "check/sandwich.h"
#include "check/target_sets.h"
#include "ir/verifier.h"
#include "runtime/digest.h"

namespace pibe::core {

namespace {

/**
 * One sandwich stage: audit `image` after `pass` and die if the pass
 * regressed the module. Structural (verify.*) errors are always fatal
 * — they were before this suite existed, via verifyOrDie — while
 * lint/coverage findings only abort when a pass *introduced* them, so
 * modules that enter the pipeline with pre-existing lint findings
 * still build.
 */
void
auditStage(check::PassSandwich& sandwich, const std::string& pass,
           const ir::Module& image, const check::CheckOptions& opts,
           BuildReport& rep, check::AnalysisManager* am)
{
    const check::StageResult& stage =
        sandwich.afterPass(pass, image, opts, am);
    rep.sandwich.insert(rep.sandwich.end(), stage.fresh.begin(),
                        stage.fresh.end());
    for (const check::Diagnostic& d : stage.fresh) {
        if (d.severity == check::Severity::kError &&
            d.check_id.rfind("verify.", 0) == 0) {
            PIBE_FATAL("pass sandwich: structural verification failed ",
                       "at stage '", pass, "': ", d.render());
        }
    }
    if (stage.regressed()) {
        const check::Diagnostic* first = stage.firstFreshError();
        PIBE_FATAL("pass sandwich: pass '", pass, "' introduced ",
                   stage.regressed_checks.size(),
                   " regressed check(s), first: ",
                   first ? first->render()
                         : "(error counts rose without a fresh "
                           "location; likely a duplicated finding)");
    }
}

} // namespace

ir::Module
buildImage(const ir::Module& linked, const profile::EdgeProfile& profile,
           const OptConfig& opt, const harden::DefenseConfig& defenses,
           BuildReport* report)
{
    ir::Module image = linked; // snapshot
    profile::EdgeProfile working = profile;
    BuildReport local;
    BuildReport& rep = report ? *report : local;

    rep.baseline_image_size = analysis::imageSizeOf(linked);

    // One analysis cache spans the whole pass sequence. Each pass
    // reports the functions it mutated; only those are invalidated
    // before the next audit, so the sandwich re-derives analyses for
    // exactly the code that changed.
    check::PassSandwich sandwich;
    check::AnalysisManager am(image);
    auto audit = [&](const std::string& pass, bool coverage,
                     bool profile_flow) {
        if (!opt.sandwich)
            return;
        check::CheckOptions copts;
        copts.coverage = coverage;
        copts.defense = defenses;
        // Feasible-target validation at every stage: ICP guard chains
        // and op-table entries must stay inside the statically
        // feasible sets (fresh verify.targets errors are fatal).
        copts.targets = true;
        // Flow conservation only holds for the profile as collected;
        // the inliners inherit edge weights into cloned sites without
        // subtracting them from the originals, so the invariants are
        // checked once, against the unmodified pipeline input.
        copts.profile_flow = profile_flow;
        copts.profile = &profile;
        auditStage(sandwich, pass, image, copts, rep, &am);
    };
    auto invalidateTouched = [&](const std::vector<ir::FuncId>& touched) {
        for (ir::FuncId f : touched)
            am.invalidate(f);
    };

    audit("input", /*coverage=*/false, /*profile_flow=*/true);

    // Promotion first: it turns hot indirect edges into direct ones,
    // creating inlining candidates (§5.3).
    if (opt.enable_icp) {
        opt::IcpConfig cfg;
        cfg.budget = opt.icp_budget;
        cfg.max_targets_per_site = opt.icp_max_targets;
        opt::FeasibilityMap feas;
        if (opt.icp_total_promotion) {
            // Snapshot the pre-ICP feasible sets; the planner drops
            // fallback icalls only where the set is complete and
            // fully covered by guarded direct calls.
            feas = check::feasibilityMap(am.targetSets());
            cfg.feasibility = &feas;
            cfg.total_promotion = true;
            cfg.total_promotion_max_targets =
                opt.icp_total_promotion_max_targets;
        }
        rep.icp = opt::runIcp(image, working, cfg);
        invalidateTouched(rep.icp.touched);
        audit("icp", false, false);
    }

    switch (opt.inliner) {
      case InlinerKind::kPibe: {
        opt::PibeInlinerConfig cfg;
        cfg.budget = opt.inline_budget;
        cfg.lax_heuristics = opt.lax_heuristics;
        cfg.lax_budget = opt.lax_budget;
        cfg.rule2_caller_threshold = opt.rule2_caller_threshold;
        cfg.rule3_callee_threshold = opt.rule3_callee_threshold;
        rep.inlining = opt::runPibeInliner(image, working, cfg);
        invalidateTouched(rep.inlining.touched);
        audit("inline", false, false);
        break;
      }
      case InlinerKind::kDefaultLlvm: {
        opt::DefaultInlinerConfig cfg;
        cfg.budget = opt.inline_budget;
        rep.inlining = opt::runDefaultInliner(image, working, cfg);
        invalidateTouched(rep.inlining.touched);
        audit("inline", false, false);
        break;
      }
      case InlinerKind::kNone:
        break;
    }

    std::vector<ir::FuncId> harden_touched;
    rep.coverage = harden::applyDefenses(image, defenses, &harden_touched);
    // ICP residue accounting: analyzeCoverage cannot recover these
    // from the module alone, so the pipeline fills them from the
    // promotion audit (satisfying Table 6/11's surface columns).
    rep.coverage.capped_residual_icalls = rep.icp.capped_sites;
    rep.coverage.elided_icalls = rep.icp.fallbacks_dropped;
    invalidateTouched(harden_touched);
    audit("harden", /*coverage=*/true, /*profile_flow=*/false);

    rep.analyses_computed = am.computations();
    rep.analyses_reused = am.hits();
    rep.image_size = analysis::imageSizeOf(image);
    rep.final_profile = std::move(working);

    if (!opt.sandwich)
        ir::verifyOrDie(image, "buildImage(" + defenses.name() + ")");
    return image;
}

std::string
moduleDigest(const ir::Module& module)
{
    runtime::Digest d;
    d.add(static_cast<uint64_t>(module.numFunctions()));
    for (const ir::Function& f : module.functions()) {
        d.add(f.name);
        d.add(f.num_params);
        d.add(f.num_regs);
        d.add(f.frame_size);
        d.add(f.attrs);
        d.add(static_cast<uint64_t>(f.blocks.size()));
        for (const ir::BasicBlock& bb : f.blocks) {
            d.add(static_cast<uint64_t>(bb.insts.size()));
            for (const ir::Instruction& inst : bb.insts) {
                d.add(static_cast<uint32_t>(inst.op));
                d.add(static_cast<uint32_t>(inst.bin));
                d.add(inst.dst);
                d.add(inst.a);
                d.add(inst.b);
                d.add(inst.imm);
                d.add(inst.callee);
                d.add(inst.global);
                d.add(inst.t0);
                d.add(inst.t1);
                d.add(static_cast<uint64_t>(inst.args.size()));
                for (ir::Reg r : inst.args)
                    d.add(r);
                d.add(static_cast<uint64_t>(inst.case_values.size()));
                for (int64_t v : inst.case_values)
                    d.add(v);
                for (ir::BlockId t : inst.case_targets)
                    d.add(t);
                d.add(inst.site_id);
                d.add(static_cast<uint32_t>(inst.fwd_scheme));
                d.add(static_cast<uint32_t>(inst.ret_scheme));
                d.add(inst.is_asm);
            }
        }
    }
    d.add(static_cast<uint64_t>(module.globals().size()));
    for (const ir::Global& g : module.globals()) {
        d.add(g.name);
        d.add(static_cast<uint64_t>(g.init.size()));
        for (int64_t v : g.init)
            d.add(v);
    }
    d.add(module.siteIdBound());
    return d.hex();
}

} // namespace pibe::core
