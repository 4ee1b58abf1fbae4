#include "opt/icp.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "support/logging.h"

namespace pibe::opt {

namespace {

struct PromotionCandidate
{
    ir::SiteId site = ir::kNoSite;
    ir::FuncId target = ir::kInvalidFunc;
    uint64_t count = 0;
};

/** One site's planned rewrite. */
struct SitePlan
{
    ir::SiteId site = ir::kNoSite;
    ir::FuncId func = ir::kInvalidFunc; ///< Owning function.
    /** Promoted targets, hottest first. */
    std::vector<ir::FuncId> targets;
    /** Pre-assigned direct-call site ids, aligned with `targets`. */
    std::vector<ir::SiteId> direct_sites;
    /** Emit the last target as an unguarded direct call and drop the
     *  fallback icall (total promotion of a complete, small, fully
     *  covered feasible set — the Switchpoline precondition). */
    bool drop_fallback = false;
    /** Set by applyPlan when the rewrite landed. */
    bool applied = false;
};

/**
 * A full promotion plan over one module. Promotion runs in three
 * phases: planning is read-only, every fresh direct-call SiteId is
 * assigned at plan time in (site, target-rank) order, and profile
 * weight moves once, in site order, after the rewrites.
 */
struct Plan
{
    /** Site plans in ascending site order (the profile-update order). */
    std::vector<SitePlan> sites;
    /** Exclusive upper bound of the assigned site ids. */
    ir::SiteId site_id_bound = 0;
    /** Audit with the candidate/total fields filled in. */
    IcpAudit audit;
};

/**
 * Locate the kICall instruction carrying `site` within one function.
 * (Scanning only the owning function instead of the whole module is
 * what keeps promotion O(sites x function-size) rather than
 * O(sites x module-size) — the module-wide rescan per promoted site
 * was the pipeline's superlinear hot spot at 10^6 instructions.)
 */
bool
findICall(ir::Function& f, ir::SiteId site, ir::BlockId* block,
          uint32_t* index)
{
    for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
        auto& insts = f.blocks[b].insts;
        for (uint32_t i = 0; i < insts.size(); ++i) {
            if (insts[i].site_id == site &&
                insts[i].op == ir::Opcode::kICall) {
                *block = b;
                *index = i;
                return true;
            }
        }
    }
    return false;
}

/**
 * Rewrite one indirect call site into a chain of guarded direct calls
 * (hottest target first) with the original indirect call as fallback.
 * The direct calls take their pre-assigned ids from `direct_sites`
 * (aligned with `targets`).
 *
 * With `drop_fallback` (total promotion: the target set is complete
 * and fully covered) the last target is emitted as an unguarded direct
 * call and the fallback indirect call is dropped — the site's indirect
 * branch vanishes entirely.
 */
void
promoteSite(ir::Function& f, ir::BlockId bb_id, uint32_t idx,
            const std::vector<ir::FuncId>& targets,
            const std::vector<ir::SiteId>& direct_sites,
            bool drop_fallback)
{
    PIBE_ASSERT(targets.size() == direct_sites.size(),
                "promoteSite: targets/sites misaligned");
    const ir::Instruction icall = f.blocks[bb_id].insts[idx];
    PIBE_ASSERT(icall.op == ir::Opcode::kICall,
                "promoteSite: not an icall");

    // Continuation block receives everything after the icall.
    const ir::BlockId cont =
        static_cast<ir::BlockId>(f.blocks.size());
    f.blocks.emplace_back();
    {
        auto& src = f.blocks[bb_id].insts;
        auto& dst = f.blocks[cont].insts;
        dst.assign(std::make_move_iterator(src.begin() + idx + 1),
                   std::make_move_iterator(src.end()));
        src.resize(idx);
    }

    ir::BlockId cur = bb_id;
    // With drop_fallback the final target needs no guard: the set is
    // exhaustive, so "none of the others" implies the last one.
    const size_t guarded =
        drop_fallback ? targets.size() - 1 : targets.size();
    for (size_t t = 0; t < guarded; ++t) {
        const ir::FuncId target = targets[t];
        // cur: addr = funcaddr target; cond = (ptr == addr);
        //      condbr cond, call_block, next_block
        const ir::BlockId call_block =
            static_cast<ir::BlockId>(f.blocks.size());
        f.blocks.emplace_back();
        const ir::BlockId next_block =
            static_cast<ir::BlockId>(f.blocks.size());
        f.blocks.emplace_back();

        ir::Instruction addr;
        addr.op = ir::Opcode::kFuncAddr;
        addr.dst = f.num_regs++;
        addr.callee = target;

        ir::Instruction cmp;
        cmp.op = ir::Opcode::kBinOp;
        cmp.bin = ir::BinKind::kEq;
        cmp.dst = f.num_regs++;
        cmp.a = icall.a;
        cmp.b = addr.dst;

        ir::Instruction guard;
        guard.op = ir::Opcode::kCondBr;
        guard.a = cmp.dst;
        guard.t0 = call_block;
        guard.t1 = next_block;

        auto& cur_insts = f.blocks[cur].insts;
        cur_insts.push_back(addr);
        cur_insts.push_back(cmp);
        cur_insts.push_back(guard);

        ir::Instruction direct;
        direct.op = ir::Opcode::kCall;
        direct.dst = icall.dst;
        direct.callee = target;
        direct.args = icall.args;
        direct.site_id = direct_sites[t];

        ir::Instruction br;
        br.op = ir::Opcode::kBr;
        br.t0 = cont;

        auto& call_insts = f.blocks[call_block].insts;
        call_insts.push_back(std::move(direct));
        call_insts.push_back(br);

        cur = next_block;
    }

    if (drop_fallback) {
        // Terminal direct call to the last feasible target; the
        // indirect call (and its site id) is gone.
        ir::Instruction direct;
        direct.op = ir::Opcode::kCall;
        direct.dst = icall.dst;
        direct.callee = targets.back();
        direct.args = icall.args;
        direct.site_id = direct_sites.back();
        ir::Instruction br;
        br.op = ir::Opcode::kBr;
        br.t0 = cont;
        auto& insts = f.blocks[cur].insts;
        insts.push_back(std::move(direct));
        insts.push_back(br);
        return;
    }

    // Fallback: the original indirect call (keeps its site id and any
    // residual profile weight), then fall through to the continuation.
    {
        ir::Instruction fallback = icall;
        ir::Instruction br;
        br.op = ir::Opcode::kBr;
        br.t0 = cont;
        auto& insts = f.blocks[cur].insts;
        insts.push_back(std::move(fallback));
        insts.push_back(br);
    }
}

/** Select promotions and assign their direct-call site ids. */
Plan
planPromotions(const ir::Module& module,
               const profile::EdgeProfile& profile,
               const IcpConfig& config)
{
    Plan plan;
    IcpAudit& audit = plan.audit;
    plan.site_id_bound = module.siteIdBound();

    // Count all indirect call sites (Table 10 denominator) and record
    // which sites are legal promotion subjects.
    std::map<ir::SiteId, const ir::Instruction*> icall_by_site;
    std::map<ir::SiteId, ir::FuncId> site_owner;
    for (const ir::Function& f : module.functions()) {
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                if (inst.op != ir::Opcode::kICall)
                    continue;
                ++audit.total_icall_sites;
                icall_by_site.emplace(inst.site_id, &inst);
                site_owner.emplace(inst.site_id, f.id);
            }
        }
    }

    // Gather (site, target, count) candidates.
    std::vector<PromotionCandidate> candidates;
    for (const auto& [site, targets] : profile.indirectSites()) {
        auto it = icall_by_site.find(site);
        if (it == icall_by_site.end())
            continue;
        const ir::Instruction* icall = it->second;
        if (icall->is_asm)
            continue; // inline-assembly sites are untouchable (§3)
        if (module.func(site_owner[site]).hasAttr(ir::kAttrOptNone))
            continue;
        bool counted_site = false;
        for (const auto& [target, count] : targets) {
            if (count == 0)
                continue;
            if (target >= module.numFunctions())
                continue;
            const ir::Function& callee = module.func(target);
            // A guarded direct call must match the callee's signature.
            if (callee.num_params != icall->args.size())
                continue;
            candidates.push_back({site, target, count});
            audit.total_weight += count;
            ++audit.candidate_targets;
            counted_site = true;
        }
        if (counted_site)
            ++audit.candidate_sites;
    }
    if (candidates.empty())
        return plan;

    // Greedy selection under the cumulative-weight budget, hottest
    // (site, target) pairs first.
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.site != b.site)
                      return a.site < b.site;
                  return a.target < b.target;
              });
    const double target_weight =
        config.budget * static_cast<double>(audit.total_weight);
    std::map<ir::SiteId, std::vector<PromotionCandidate>> chosen;
    std::set<ir::SiteId> capped;
    double cum = 0;
    for (const auto& c : candidates) {
        if (cum >= target_weight)
            break;
        auto& list = chosen[c.site];
        if (config.max_targets_per_site != 0 &&
            list.size() >= config.max_targets_per_site) {
            // The cap drops this candidate, leaving its weight on the
            // fallback icall: residual surface the coverage report
            // must count. It must not consume budget either, or a
            // capped hot site would starve colder promotable ones.
            capped.insert(c.site);
            continue;
        }
        cum += static_cast<double>(c.count);
        list.push_back(c);
    }
    audit.capped_sites = static_cast<uint32_t>(capped.size());

    // Pre-assign direct-call site ids in (site, target-rank) order —
    // exactly the order a serial allocSiteId() walk would produce.
    for (auto& [site, list] : chosen) {
        SitePlan sp;
        sp.site = site;
        sp.func = site_owner[site];
        for (const auto& c : list) {
            sp.targets.push_back(c.target);
            sp.direct_sites.push_back(plan.site_id_bound++);
        }

        // Total-promotion safety (the Switchpoline precondition): the
        // static set is complete, non-empty, within the size bound,
        // every feasible target is promotable as a direct call, and
        // every profiled target is inside the set (so dropping the
        // fallback strands no observed weight).
        const SiteFeasibility* feas = nullptr;
        if (config.feasibility) {
            auto fit = config.feasibility->find(site);
            if (fit != config.feasibility->end())
                feas = &fit->second;
        }
        if (feas && feas->complete && !feas->targets.empty() &&
            feas->targets.size() <= config.total_promotion_max_targets) {
            const ir::Instruction* icall = icall_by_site[site];
            bool safe = true;
            for (ir::FuncId t : feas->targets) {
                if (t >= module.numFunctions() ||
                    module.func(t).num_params != icall->args.size()) {
                    safe = false;
                    break;
                }
            }
            if (safe) {
                auto pit = profile.indirectSites().find(site);
                if (pit != profile.indirectSites().end()) {
                    for (const auto& [target, count] : pit->second) {
                        if (count == 0)
                            continue;
                        if (!std::binary_search(feas->targets.begin(),
                                                feas->targets.end(),
                                                target)) {
                            safe = false;
                            break;
                        }
                    }
                }
            }
            if (safe) {
                ++audit.total_safe_sites;
                // A per-site cap wins over total promotion: never
                // expand a site beyond what the cap allows.
                bool cap_allows =
                    config.max_targets_per_site == 0 ||
                    feas->targets.size() <= config.max_targets_per_site;
                if (config.total_promotion && cap_allows) {
                    for (ir::FuncId t : feas->targets) {
                        if (std::find(sp.targets.begin(),
                                      sp.targets.end(),
                                      t) != sp.targets.end())
                            continue;
                        sp.targets.push_back(t);
                        sp.direct_sites.push_back(plan.site_id_bound++);
                    }
                    sp.drop_fallback = true;
                }
            }
        }

        plan.sites.push_back(std::move(sp));
    }
    return plan;
}

/** Rewrite every planned site, in site order. */
void
applyPlan(ir::Module& module, Plan& plan)
{
    for (SitePlan& sp : plan.sites) {
        ir::Function& f = module.func(sp.func);
        ir::BlockId block;
        uint32_t index;
        // Earlier rewrites in this function move trailing sites into
        // continuation blocks, so each site is re-located just-in-time
        // (within its function only).
        if (!findICall(f, sp.site, &block, &index))
            continue;
        promoteSite(f, block, index, sp.targets, sp.direct_sites,
                    sp.drop_fallback);
        sp.applied = true;
    }
}

/**
 * Move promoted weight from the indirect to the direct profile in site
 * order and complete the audit (promoted_* counters, touched set).
 */
IcpAudit
finalizePlan(Plan& plan, profile::EdgeProfile& profile)
{
    IcpAudit& audit = plan.audit;
    for (const SitePlan& sp : plan.sites) {
        if (!sp.applied)
            continue;
        ++audit.promoted_sites;
        if (sp.drop_fallback)
            ++audit.fallbacks_dropped;
        audit.touched.push_back(sp.func);
        for (size_t i = 0; i < sp.targets.size(); ++i) {
            uint64_t moved =
                profile.consumeIndirect(sp.site, sp.targets[i]);
            profile.addDirect(sp.direct_sites[i], moved);
            audit.promoted_weight += moved;
            ++audit.promoted_targets;
        }
        if (sp.drop_fallback) {
            // The site id no longer exists in the module; drain any
            // leftover (zero-count) value-profile entries so the
            // profile-flow checker sees no dangling site. All live
            // weight was consumed above (profiled ⊆ feasible is a
            // precondition of total promotion).
            auto it = profile.indirectSites().find(sp.site);
            if (it != profile.indirectSites().end()) {
                std::vector<ir::FuncId> rest;
                for (const auto& [target, count] : it->second)
                    rest.push_back(target);
                for (ir::FuncId target : rest)
                    audit.promoted_weight +=
                        profile.consumeIndirect(sp.site, target);
            }
        }
    }
    std::sort(audit.touched.begin(), audit.touched.end());
    audit.touched.erase(
        std::unique(audit.touched.begin(), audit.touched.end()),
        audit.touched.end());
    return audit;
}

} // namespace

IcpAudit
runIcp(ir::Module& module, profile::EdgeProfile& profile,
       const IcpConfig& config)
{
    Plan plan = planPromotions(module, profile, config);
    applyPlan(module, plan);
    module.reserveSiteIds(plan.site_id_bound);
    return finalizePlan(plan, profile);
}

} // namespace pibe::opt
