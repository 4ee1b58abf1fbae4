#include "check/checks.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "ir/printer.h"
#include "ir/verifier.h"
#include "runtime/job_graph.h"
#include "runtime/thread_pool.h"
#include "support/timer.h"

namespace pibe::check {

namespace {

/** Emission state of one audit: the whole module inline, or one shard. */
class Runner
{
  public:
    Runner(const ir::Module& module, const CheckOptions& opts,
           AnalysisManager& am)
        : module_(module), opts_(opts), am_(am)
    {
    }

    /**
     * Per-function portions of the enabled groups for [begin, end):
     * verify.function, the lints, the per-site coverage audit
     * (accumulated into `counted`, reconciled by runModuleTail), and
     * the verify.targets guard-chain scan against the pre-solved
     * `tsa` (null when the targets group is off).
     */
    void
    runShard(ir::FuncId begin, ir::FuncId end, TargetSetAnalysis* tsa,
             harden::CoverageReport& counted)
    {
        for (ir::FuncId f = begin; f < end; ++f) {
            const ir::Function& fn = module_.func(f);
            if (opts_.verify) {
                auto problems = ir::verifyFunction(module_, fn);
                broken_[f] = !problems.empty();
                for (const std::string& p : problems) {
                    Diagnostic& d =
                        emit("verify.function", Severity::kError, p);
                    d.func = f;
                    d.func_name = fn.name;
                }
            }
            if (opts_.lint && !fn.isDeclaration() && analyzable(f))
                lintFunction(fn);
        }
        if (opts_.coverage)
            coverageRange(begin, end, counted);
        if (tsa)
            targetsGuardRange(begin, end, *tsa);
    }

    /**
     * Module-wide obligations that cannot shard: site-id uniqueness,
     * coverage reconciliation against the summed shard counts,
     * target-set seed/site checks, and profile flow. Runs serially
     * after every shard.
     */
    void
    runModuleTail(TargetSetAnalysis* tsa,
                  const harden::CoverageReport& counted)
    {
        if (opts_.verify) {
            for (const std::string& p :
                 ir::verifyModuleSiteIds(module_))
                emit("verify.sites", Severity::kError, p);
        }
        if (opts_.coverage)
            reconcile(counted);
        if (tsa) {
            targetsBadSlots(*tsa);
            targetsModuleSites(*tsa);
        }
        if (opts_.profile_flow && opts_.profile)
            runProfileFlow();
    }

    /** Everything emitted so far, in emission order. */
    std::vector<Diagnostic> take() { return std::move(diags_); }

  private:
    // --- emission helpers -------------------------------------------

    Diagnostic&
    emit(const char* id, Severity sev, std::string message)
    {
        Diagnostic d;
        d.check_id = id;
        d.severity = sev;
        d.message = std::move(message);
        diags_.push_back(std::move(d));
        return diags_.back();
    }

    Diagnostic&
    emitAt(const char* id, Severity sev, ir::FuncId f, ir::BlockId b,
           int32_t inst, std::string message)
    {
        Diagnostic& d = emit(id, sev, std::move(message));
        d.func = f;
        d.func_name = module_.func(f).name;
        d.block = b;
        d.inst = inst;
        return d;
    }

    /** Functions whose structure is broken; analyses must not run. */
    bool
    analyzable(ir::FuncId f)
    {
        auto it = broken_.find(f);
        if (it != broken_.end())
            return !it->second;
        const bool bad =
            !ir::verifyFunction(module_, module_.func(f)).empty();
        broken_[f] = bad;
        return !bad;
    }

    bool
    isAllowed(const ir::Function& f, ir::SiteId site) const
    {
        if (std::find(opts_.allowed_sites.begin(),
                      opts_.allowed_sites.end(),
                      site) != opts_.allowed_sites.end())
            return true;
        return std::find(opts_.allowed_funcs.begin(),
                         opts_.allowed_funcs.end(),
                         f.name) != opts_.allowed_funcs.end();
    }

    // --- lint group -------------------------------------------------

    void
    lintFunction(const ir::Function& f)
    {
        const Cfg& cfg = am_.cfg(f.id);
        const ReachingDefs& reaching = am_.reachingDefs(f.id);
        const DefiniteAssignment& assigned =
            am_.definiteAssignment(f.id);
        const Liveness& live = am_.liveness(f.id);
        const FrameLiveness& frame_live = am_.frameLiveness(f.id);

        // Streaming sweep: live-out facts land in two reusable flat
        // matrices and the forward analyses advance via cursors, so
        // the per-instruction queries are amortized O(1) instead of
        // replaying the block per instruction.
        ReachingDefs::Cursor reach_cur(reaching);
        DefiniteAssignment::Cursor assign_cur(assigned);
        FactMatrix reg_out;
        FactMatrix frame_out;

        for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
            if (!cfg.isReachable(b)) {
                emitAt("lint.unreachable-block", Severity::kWarning,
                       f.id, b, -1,
                       "block is unreachable from the entry")
                    .hint = "run opt::simplifyCfg to delete it";
                continue;
            }
            live.perInstLiveOut(b, reg_out);
            frame_live.perInstLiveOut(b, frame_out);
            reach_cur.startBlock(b);
            assign_cur.startBlock(b);
            const auto& insts = f.blocks[b].insts;
            for (uint32_t i = 0; i < insts.size(); ++i) {
                const ir::Instruction& inst = insts[i];
                lintUses(f, b, i, inst, reach_cur,
                         assign_cur.assigned());
                lintDeadStore(f, b, i, inst, reg_out, frame_out);
                if (inst.op == ir::Opcode::kICall)
                    lintICallTargets(f, b, i, inst, reaching,
                                     reach_cur);
                reach_cur.advance(inst);
                assign_cur.advance(inst);
            }
        }
    }

    void
    lintUses(const ir::Function& f, ir::BlockId b, uint32_t i,
             const ir::Instruction& inst,
             const ReachingDefs::Cursor& reach, const BitVector& have)
    {
        uses_.clear();
        appendUses(inst, uses_);
        for (ir::Reg r : uses_) {
            if (r >= f.num_regs)
                continue; // verifier territory
            reach.defsOf(r, def_ids_);
            if (def_ids_.empty()) {
                emitAt("lint.use-before-def", Severity::kError, f.id, b,
                       static_cast<int32_t>(i),
                       "register r" + std::to_string(r) +
                           " is read but never written on any path")
                    .hint = "the simulator would read 0; almost "
                            "certainly a pass bug";
            } else if (!have.test(r)) {
                emitAt("lint.maybe-uninit", Severity::kWarning, f.id, b,
                       static_cast<int32_t>(i),
                       "register r" + std::to_string(r) +
                           " may be read before it is written");
            }
        }
    }

    void
    lintDeadStore(const ir::Function& f, ir::BlockId b, uint32_t i,
                  const ir::Instruction& inst,
                  const FactMatrix& reg_out, const FactMatrix& frame_out)
    {
        switch (inst.op) {
          case ir::Opcode::kConst:
          case ir::Opcode::kMove:
          case ir::Opcode::kBinOp:
          case ir::Opcode::kFuncAddr:
          case ir::Opcode::kLoad:
          case ir::Opcode::kFrameLoad: {
            const ir::Reg d = inst.dst;
            if (d < f.num_regs && !reg_out.test(i, d)) {
                emitAt("lint.dead-store", Severity::kWarning, f.id, b,
                       static_cast<int32_t>(i),
                       "register r" + std::to_string(d) +
                           " is written but never read afterwards")
                    .hint = "dead code; opt::deadCodeElim removes it";
            }
            break;
          }
          case ir::Opcode::kFrameStore: {
            const auto slot = static_cast<size_t>(inst.imm);
            if (slot < f.frame_size && !frame_out.test(i, slot)) {
                emitAt("lint.dead-store", Severity::kWarning, f.id, b,
                       static_cast<int32_t>(i),
                       "frame slot " + std::to_string(inst.imm) +
                           " is written but never read afterwards");
            }
            break;
          }
          default:
            break;
        }
    }

    void
    lintICallTargets(const ir::Function& f, ir::BlockId b, uint32_t i,
                     const ir::Instruction& inst,
                     const ReachingDefs& reaching,
                     const ReachingDefs::Cursor& reach)
    {
        // Resolve the target register through its reaching defs; only
        // judge arity when *every* def is a constant function address.
        std::vector<ir::FuncId> targets;
        reach.defsOf(inst.a, def_ids_);
        for (size_t id : def_ids_) {
            const ReachingDefs::Def& def = reaching.defs()[id];
            if (def.is_param)
                return;
            const ir::Instruction& di =
                f.blocks[def.block].insts[def.index];
            if (di.op == ir::Opcode::kFuncAddr) {
                targets.push_back(di.callee);
            } else if (di.op == ir::Opcode::kConst &&
                       ir::isFuncAddrValue(di.imm)) {
                const ir::FuncId t = ir::funcAddrTarget(di.imm);
                if (t >= module_.numFunctions()) {
                    emitAt("lint.call-target", Severity::kError, f.id,
                           b, static_cast<int32_t>(i),
                           "indirect call through a constant that is "
                           "not a valid function address")
                        .site = inst.site_id;
                    return;
                }
                targets.push_back(t);
            } else {
                return; // target flows from memory/arithmetic: unknown
            }
        }
        for (ir::FuncId t : targets) {
            const ir::Function& callee = module_.func(t);
            if (inst.args.size() != callee.num_params) {
                Diagnostic& d = emitAt(
                    "lint.call-arity", Severity::kError, f.id, b,
                    static_cast<int32_t>(i),
                    "indirect call passes " +
                        std::to_string(inst.args.size()) +
                        " args but resolvable target @" + callee.name +
                        " expects " + std::to_string(callee.num_params));
                d.site = inst.site_id;
            }
        }
    }

    // --- coverage group ---------------------------------------------

    void
    coverageRange(ir::FuncId begin, ir::FuncId end,
                  harden::CoverageReport& counted)
    {
        const ir::FwdScheme required_fwd =
            harden::forwardSchemeFor(opts_.defense);
        const ir::RetScheme required_ret =
            harden::returnSchemeFor(opts_.defense);
        const bool active = opts_.defense.any();

        for (ir::FuncId func = begin; func < end; ++func) {
            const ir::Function& f = module_.func(func);
            if (f.isDeclaration())
                continue;
            const bool boot = f.hasAttr(ir::kAttrBootSection);
            const bool has_cfg = analyzable(f.id);
            for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
                // Broken functions still get counted (analyzeCoverage
                // counts them), but requirement checks need a CFG.
                const bool reachable =
                    has_cfg && am_.cfg(f.id).isReachable(b);
                const auto& insts = f.blocks[b].insts;
                for (uint32_t i = 0; i < insts.size(); ++i) {
                    auditSite(f, b, i, insts[i], boot, has_cfg,
                              reachable, active, required_fwd,
                              required_ret, counted);
                }
            }
        }
    }

    void
    auditSite(const ir::Function& f, ir::BlockId b, uint32_t i,
              const ir::Instruction& inst, bool boot, bool has_cfg,
              bool reachable, bool active, ir::FwdScheme required_fwd,
              ir::RetScheme required_ret,
              harden::CoverageReport& counted)
    {
        switch (inst.op) {
          case ir::Opcode::kICall:
            if (inst.fwd_scheme == ir::FwdScheme::kNone)
                ++counted.vulnerable_icalls;
            else
                ++counted.protected_icalls;
            break;
          case ir::Opcode::kSwitch:
            ++counted.vulnerable_ijumps;
            break;
          case ir::Opcode::kRet:
            if (inst.ret_scheme != ir::RetScheme::kNone)
                ++counted.protected_rets;
            else if (boot)
                ++counted.boot_only_rets;
            break;
          default:
            return;
        }

        if (has_cfg && !reachable) {
            emitAt("coverage.unreachable-site", Severity::kNote, f.id,
                   b, static_cast<int32_t>(i),
                   "indirect branch in unreachable code is outside "
                   "the audited attack surface")
                .site = inst.site_id;
            return;
        }
        if (!active || isAllowed(f, inst.site_id))
            return;

        switch (inst.op) {
          case ir::Opcode::kICall:
            if (inst.is_asm) {
                if (inst.fwd_scheme != ir::FwdScheme::kNone) {
                    emitAt("coverage.asm-rewritten", Severity::kError,
                           f.id, b, static_cast<int32_t>(i),
                           "inline-assembly indirect call was "
                           "rewritten by a hardening pass")
                        .site = inst.site_id;
                }
            } else if (inst.fwd_scheme != required_fwd) {
                const bool missing =
                    inst.fwd_scheme == ir::FwdScheme::kNone;
                Diagnostic& d = emitAt(
                    missing ? "coverage.fwd-missing"
                            : "coverage.fwd-wrong",
                    Severity::kError, f.id, b, static_cast<int32_t>(i),
                    std::string("reachable indirect call carries "
                                "scheme '") +
                        ir::fwdSchemeName(inst.fwd_scheme) +
                        "' but defense config '" +
                        opts_.defense.name() + "' requires '" +
                        ir::fwdSchemeName(required_fwd) + "'");
                d.site = inst.site_id;
                d.hint = "harden::applyDefenses missed this site or a "
                         "later pass dropped the tag";
            }
            break;
          case ir::Opcode::kSwitch:
            if (!inst.is_asm) {
                emitAt("coverage.switch-residual", Severity::kError,
                       f.id, b, static_cast<int32_t>(i),
                       "reachable non-asm switch survived hardening "
                       "(jump tables must be lowered under transient "
                       "defenses)")
                    .site = inst.site_id;
            }
            break;
          case ir::Opcode::kRet:
            if (boot) {
                if (inst.ret_scheme != ir::RetScheme::kNone) {
                    emitAt("coverage.boot-hardened", Severity::kWarning,
                           f.id, b, static_cast<int32_t>(i),
                           "boot-section return carries a scheme it "
                           "does not need")
                        .site = inst.site_id;
                }
            } else if (inst.ret_scheme != required_ret) {
                if (required_ret == ir::RetScheme::kNone) {
                    emitAt("coverage.ret-unexpected", Severity::kWarning,
                           f.id, b, static_cast<int32_t>(i),
                           std::string("return carries scheme '") +
                               ir::retSchemeName(inst.ret_scheme) +
                               "' but defense config '" +
                               opts_.defense.name() +
                               "' hardens no returns")
                        .site = inst.site_id;
                } else {
                    const bool missing =
                        inst.ret_scheme == ir::RetScheme::kNone;
                    Diagnostic& d = emitAt(
                        missing ? "coverage.ret-missing"
                                : "coverage.ret-wrong",
                        Severity::kError, f.id, b,
                        static_cast<int32_t>(i),
                        std::string("reachable return carries scheme "
                                    "'") +
                            ir::retSchemeName(inst.ret_scheme) +
                            "' but defense config '" +
                            opts_.defense.name() + "' requires '" +
                            ir::retSchemeName(required_ret) + "'");
                    d.site = inst.site_id;
                }
            }
            break;
          default:
            break;
        }
    }

    void
    reconcile(const harden::CoverageReport& counted)
    {
        const harden::CoverageReport reported =
            harden::analyzeCoverage(module_);
        auto field = [&](const char* name, uint32_t ours,
                         uint32_t theirs) {
            if (ours == theirs)
                return;
            emit("coverage.report-mismatch", Severity::kError,
                 std::string(name) + ": audit counted " +
                     std::to_string(ours) +
                     " but harden::analyzeCoverage reports " +
                     std::to_string(theirs))
                .hint = "the auditor and CoverageReport disagree on "
                        "classification rules";
        };
        field("protected_icalls", counted.protected_icalls,
              reported.protected_icalls);
        field("vulnerable_icalls", counted.vulnerable_icalls,
              reported.vulnerable_icalls);
        field("vulnerable_ijumps", counted.vulnerable_ijumps,
              reported.vulnerable_ijumps);
        field("protected_rets", counted.protected_rets,
              reported.protected_rets);
        field("boot_only_rets", counted.boot_only_rets,
              reported.boot_only_rets);
    }

    // --- targets group ----------------------------------------------

    // Feasible-target validation (module-wide; see target_sets.h),
    // against a target-set analysis solved before any shard runs.

    /**
     * verify.targets on global initializer slots that decode to
     * nonexistent functions (the op-table analogue of a corrupt
     * jump-table entry).
     */
    void
    targetsBadSlots(TargetSetAnalysis& tsa)
    {
        for (const BadGlobalSlot& bad : tsa.badGlobalSlots()) {
            Diagnostic& d = emit(
                "verify.targets", Severity::kError,
                "global '" + module_.global(bad.global).name +
                    "' slot " + std::to_string(bad.slot) +
                    " holds function address " +
                    std::to_string(bad.value) +
                    " of a nonexistent function");
            d.hint = "a table initializer encodes a FuncId outside "
                     "the module; indirect calls through it trap";
        }
    }

    /**
     * verify.targets translation validation of ICP guard chains: a
     * block ending [funcaddr T; eq(ptr, addr); condbr] whose taken
     * block starts with a direct call to T is (shaped like) a
     * promotion of T at an icall through `ptr` — if the analysis
     * resolved `ptr` completely, T must be feasible.
     */
    void
    targetsGuardRange(ir::FuncId begin, ir::FuncId end,
                      TargetSetAnalysis& tsa)
    {
        for (ir::FuncId func = begin; func < end; ++func) {
            const ir::Function& f = module_.func(func);
            for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
                const auto& insts = f.blocks[b].insts;
                if (insts.size() < 3)
                    continue;
                const ir::Instruction& guard = insts.back();
                const ir::Instruction& cmp = insts[insts.size() - 2];
                const ir::Instruction& addr = insts[insts.size() - 3];
                if (guard.op != ir::Opcode::kCondBr ||
                    cmp.op != ir::Opcode::kBinOp ||
                    cmp.bin != ir::BinKind::kEq ||
                    addr.op != ir::Opcode::kFuncAddr ||
                    guard.a != cmp.dst)
                    continue;
                ir::Reg ptr;
                if (cmp.b == addr.dst)
                    ptr = cmp.a;
                else if (cmp.a == addr.dst)
                    ptr = cmp.b;
                else
                    continue;
                if (guard.t0 >= f.blocks.size())
                    continue;
                const auto& taken = f.blocks[guard.t0].insts;
                if (taken.empty() ||
                    taken[0].op != ir::Opcode::kCall ||
                    taken[0].callee != addr.callee)
                    continue;
                // An ICP-shaped promotion of addr.callee.
                TargetSet ts = tsa.regTargets(f.id, ptr);
                if (!ts.incomplete && !ts.contains(addr.callee)) {
                    Diagnostic& d = emitAt(
                        "verify.targets", Severity::kError, f.id, b,
                        static_cast<int32_t>(insts.size() - 3),
                        "promoted direct call to @" +
                            module_.func(addr.callee).name +
                            " is outside the site's feasible target "
                            "set (" +
                            std::to_string(ts.targets.size()) +
                            " targets)");
                    d.site = taken[0].site_id;
                    d.hint = "icp promoted a target the points-to "
                             "analysis proves infeasible: a pass bug "
                             "or a corrupt profile";
                }
            }
        }
    }

    /**
     * verify.targets on complete-and-empty icall sites (the call can
     * never resolve: dead dispatch or a seeding bug), and
     * coverage.targets: with a profile, every observed target of a
     * completely-resolved site must be inside its static set (catches
     * corrupt profiles and pass bugs the Kirchhoff checker cannot
     * see).
     */
    void
    targetsModuleSites(TargetSetAnalysis& tsa)
    {
        for (const auto& [sid, st] : tsa.sites()) {
            if (st.complete() && st.targets.empty()) {
                Diagnostic& d = emitAt(
                    "verify.targets", Severity::kWarning, st.func,
                    st.block, static_cast<int32_t>(st.index),
                    "indirect call can never resolve: its feasible "
                    "target set is complete and empty");
                d.site = sid;
                d.hint = "dead dispatch code, or a table that is "
                         "never seeded with function addresses";
            }
        }

        if (opts_.profile) {
            for (const auto& [site, targets] :
                 opts_.profile->indirectSites()) {
                const SiteTargets* st = tsa.site(site);
                if (!st || st->incomplete)
                    continue;
                for (const auto& [target, count] : targets) {
                    if (count == 0)
                        continue;
                    if (target >= module_.numFunctions())
                        continue; // profile.unresolved-func covers it.
                    if (std::binary_search(st->targets.begin(),
                                           st->targets.end(), target))
                        continue;
                    Diagnostic& d = emitAt(
                        "coverage.targets", Severity::kError, st->func,
                        st->block, static_cast<int32_t>(st->index),
                        "profile-observed target @" +
                            module_.func(target).name +
                            " is outside the site's complete static "
                            "target set");
                    d.site = site;
                    d.hint = "the profile disagrees with the "
                             "points-to analysis: a corrupt/stale "
                             "profile, or an analysis soundness bug";
                }
            }
        }
    }

    // --- profile group ----------------------------------------------

    struct SiteInfo
    {
        ir::FuncId func = ir::kInvalidFunc;
        ir::BlockId block = 0;
        uint32_t index = 0;
        ir::Opcode op = ir::Opcode::kConst;
        ir::FuncId callee = ir::kInvalidFunc; ///< kCall only.
    };

    void
    runProfileFlow()
    {
        const profile::EdgeProfile& prof = *opts_.profile;

        // Index every site-carrying instruction once.
        std::unordered_map<ir::SiteId, SiteInfo> sites;
        for (const ir::Function& f : module_.functions()) {
            for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
                const auto& insts = f.blocks[b].insts;
                for (uint32_t i = 0; i < insts.size(); ++i) {
                    const ir::Instruction& inst = insts[i];
                    if (inst.site_id == ir::kNoSite)
                        continue;
                    sites[inst.site_id] =
                        SiteInfo{f.id, b, i, inst.op, inst.callee};
                }
            }
        }

        const bool have_invocations = [&] {
            for (const ir::Function& f : module_.functions())
                if (prof.invocations(f.id) > 0)
                    return true;
            return false;
        }();

        // Incoming profiled weight per function, accumulated while
        // walking the profile's edges.
        std::vector<uint64_t> incoming(module_.numFunctions(), 0);

        for (const auto& [site, count] : prof.directSites()) {
            const SiteInfo* info = resolveSite(sites, site, "direct");
            if (!info)
                continue;
            if (info->op != ir::Opcode::kCall) {
                siteDiag("profile.site-kind", site, *info,
                         "direct-call count recorded at a site that "
                         "is not a direct call");
                continue;
            }
            incoming[info->callee] += count;
            checkAcyclicBound(prof, have_invocations, site, *info,
                              count);
        }

        for (const auto& [site, targets] : prof.indirectSites()) {
            const SiteInfo* info = resolveSite(sites, site, "indirect");
            if (info && info->op != ir::Opcode::kICall) {
                siteDiag("profile.site-kind", site, *info,
                         "indirect value profile recorded at a site "
                         "that is not an indirect call");
                info = nullptr;
            }
            if (info && prof.directCount(site) > 0) {
                siteDiag("profile.site-kind", site, *info,
                         "site has both a direct count and an "
                         "indirect value profile");
            }
            uint64_t total = 0;
            for (const auto& [target, count] : targets) {
                if (target >= module_.numFunctions()) {
                    Diagnostic& d =
                        emit("profile.unresolved-func",
                             Severity::kError,
                             "indirect target FuncId " +
                                 std::to_string(target) +
                                 " does not resolve in the module");
                    d.site = site;
                    continue;
                }
                if (count == 0) {
                    emit("profile.zero-count", Severity::kNote,
                         "zero-count target @" +
                             module_.func(target).name +
                             " in value profile")
                        .site = site;
                }
                incoming[target] += count;
                total += count;
            }
            if (info)
                checkAcyclicBound(prof, have_invocations, site, *info,
                                  total);
        }

        if (have_invocations)
            checkInvocationFlow(prof, incoming);
    }

    const SiteInfo*
    resolveSite(const std::unordered_map<ir::SiteId, SiteInfo>& sites,
                ir::SiteId site, const char* kind)
    {
        if (site >= module_.siteIdBound()) {
            emit("profile.site-bound", Severity::kError,
                 std::string(kind) + " site id " + std::to_string(site) +
                     " is beyond the module's allocated bound " +
                     std::to_string(module_.siteIdBound()))
                .site = site;
            return nullptr;
        }
        auto it = sites.find(site);
        if (it == sites.end()) {
            Diagnostic& d = emit(
                "profile.unresolved-site", Severity::kError,
                std::string(kind) + " site id " + std::to_string(site) +
                    " does not resolve to any instruction");
            d.site = site;
            d.hint = "the profile predates a pass that deleted the "
                     "site; re-collect or re-lift it";
            return nullptr;
        }
        return &it->second;
    }

    void
    siteDiag(const char* id, ir::SiteId site, const SiteInfo& info,
             std::string message)
    {
        Diagnostic& d =
            emitAt(id, Severity::kError, info.func, info.block,
                   static_cast<int32_t>(info.index), std::move(message));
        d.site = site;
    }

    void
    checkAcyclicBound(const profile::EdgeProfile& prof,
                      bool have_invocations, ir::SiteId site,
                      const SiteInfo& info, uint64_t count)
    {
        if (!have_invocations || !analyzable(info.func))
            return;
        const Cfg& cfg = am_.cfg(info.func);
        if (!cfg.isReachable(info.block) || cfg.inCycle(info.block))
            return;
        const uint64_t inv = prof.invocations(info.func);
        if (count > inv) {
            siteDiag("profile.acyclic-bound", site, info,
                     "site executes at most once per activation of @" +
                         module_.func(info.func).name +
                         " yet its count " + std::to_string(count) +
                         " exceeds the function's " +
                         std::to_string(inv) + " invocations");
        }
    }

    void
    checkInvocationFlow(const profile::EdgeProfile& prof,
                        const std::vector<uint64_t>& incoming)
    {
        std::vector<std::string> roots = opts_.roots;
        if (roots.empty())
            roots = {"kernel_init", "sys_dispatch", "main"};
        for (const ir::Function& f : module_.functions()) {
            const uint64_t inv = prof.invocations(f.id);
            const uint64_t in = incoming[f.id];
            if (inv == in)
                continue;
            const bool is_root =
                std::find(roots.begin(), roots.end(), f.name) !=
                roots.end();
            if (is_root && inv > in)
                continue; // external entries legitimately add weight
            std::ostringstream msg;
            msg << "invocation count " << inv << " of @" << f.name
                << " does not match the " << in
                << " incoming profiled call-edge executions";
            Diagnostic& d = emit("profile.invocation-flow",
                                 Severity::kError, msg.str());
            d.func = f.id;
            d.func_name = f.name;
            d.hint = is_root
                         ? "root function lost invocation weight"
                         : "profile corruption, or the function is an "
                           "unlisted root (see --roots)";
        }
    }

    const ir::Module& module_;
    const CheckOptions& opts_;
    AnalysisManager& am_;
    std::vector<Diagnostic> diags_;
    std::unordered_map<ir::FuncId, bool> broken_;
    std::vector<ir::Reg> uses_;
    std::vector<size_t> def_ids_;
};

void
append(std::vector<Diagnostic>& to, std::vector<Diagnostic> from)
{
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

void
addCounts(harden::CoverageReport& total, const harden::CoverageReport& c)
{
    total.protected_icalls += c.protected_icalls;
    total.vulnerable_icalls += c.vulnerable_icalls;
    total.vulnerable_ijumps += c.vulnerable_ijumps;
    total.protected_rets += c.protected_rets;
    total.boot_only_rets += c.boot_only_rets;
}

/**
 * The one audit driver behind runChecks() and runChecksParallel().
 * Solves the target sets once, runs the per-function shards — inline
 * on the calling thread against `am` when `pool` is null, otherwise
 * fanned out over `pool` with a private AnalysisManager per shard —
 * then the module tail on `am`, and returns the diagnostics sorted.
 * A null `am` means a private manager.
 */
CheckReport
audit(const ir::Module& module, const CheckOptions& opts,
      AnalysisManager* am, runtime::ThreadPool* pool, size_t shard_size)
{
    std::optional<AnalysisManager> local;
    if (!am)
        am = &local.emplace(module);
    PIBE_ASSERT(&am->module() == &module,
                "AnalysisManager wraps a different module");
    CheckReport out;
    Stopwatch phase;

    // Solve the module-wide target-set fixpoint once, serially; the
    // shards only read it (see TargetSetAnalysis::ensureSolved).
    TargetSetAnalysis* tsa = nullptr;
    if (opts.targets) {
        tsa = &am->targetSets(opts.roots);
        tsa->ensureSolved();
        out.group_ms.emplace_back("targets.solve", phase.lapMs());
    }

    const auto n = static_cast<ir::FuncId>(module.numFunctions());
    Runner runner(module, opts, *am);
    harden::CoverageReport counted;
    if (!pool) {
        runner.runShard(0, n, tsa, counted);
    } else {
        const auto step =
            static_cast<ir::FuncId>(std::max<size_t>(1, shard_size));
        const size_t num_shards = n == 0 ? 0 : (n + step - 1) / step;
        std::vector<std::vector<Diagnostic>> diags(num_shards);
        std::vector<harden::CoverageReport> counts(num_shards);
        runtime::JobGraph graph;
        for (size_t s = 0; s < num_shards; ++s) {
            const auto begin = static_cast<ir::FuncId>(s * step);
            const ir::FuncId end = std::min<ir::FuncId>(begin + step, n);
            graph.add("check/" + std::to_string(s),
                      [&module, &opts, &diags, &counts, tsa, begin, end,
                       s](const runtime::JobContext&) {
                          AnalysisManager shard_am(module);
                          Runner r(module, opts, shard_am);
                          r.runShard(begin, end, tsa, counts[s]);
                          diags[s] = r.take();
                      });
        }
        graph.run(*pool);
        for (size_t s = 0; s < num_shards; ++s) {
            append(out.diags, std::move(diags[s]));
            addCounts(counted, counts[s]);
        }
    }
    out.group_ms.emplace_back("shards.parallel", phase.lapMs());

    runner.runModuleTail(tsa, counted);
    append(out.diags, runner.take());
    // Canonical order: emission order depends on the shard size, so
    // it must not leak into reports, JSON or sandwich attribution.
    sortDiagnostics(out.diags);
    out.group_ms.emplace_back("module.serial", phase.lapMs());
    return out;
}

} // namespace

CheckReport
runChecks(const ir::Module& module, const CheckOptions& opts,
          AnalysisManager* am)
{
    return audit(module, opts, am, nullptr, 0);
}

CheckReport
runChecksParallel(const ir::Module& module, const CheckOptions& opts,
                  runtime::ThreadPool& pool, size_t shard_size,
                  AnalysisManager* am)
{
    return audit(module, opts, am, &pool, shard_size);
}

std::optional<Severity>
severityFromName(std::string_view name)
{
    if (name == "note")
        return Severity::kNote;
    if (name == "warn" || name == "warning")
        return Severity::kWarning;
    if (name == "error")
        return Severity::kError;
    return std::nullopt;
}

CheckOutcome
runChecksWithPolicy(const ir::Module& module, const CheckOptions& opts,
                    Severity fail_on, AnalysisManager* am)
{
    CheckOutcome out;
    out.report = runChecks(module, opts, am);
    out.fail_on = fail_on;
    out.passed = out.report.ok(fail_on);
    return out;
}

} // namespace pibe::check
