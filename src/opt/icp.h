/**
 * @file
 * Profile-guided indirect call promotion (§5.3).
 *
 * For each indirect call site with a value profile, PIBE promotes the
 * hottest (site, target) pairs — selected greedily under a cumulative
 * weight budget — into guarded direct calls, keeping the original
 * indirect call as the fallback. Unlike classic ICP, the number of
 * targets promoted per site is unlimited: a compare is ~2 cycles while
 * a hardened indirect call costs ~21+ cycles, so extra checks are
 * cheap relative to the slow path they avoid.
 *
 * Promoted edges are moved from the indirect to the direct part of the
 * profile, so a subsequent inlining pass sees them as candidates
 * (promotion "provides more opportunities for inlining", §2.3).
 */
#ifndef PIBE_OPT_ICP_H_
#define PIBE_OPT_ICP_H_

#include <cstdint>
#include <map>
#include <vector>

#include "ir/module.h"
#include "profile/edge_profile.h"

namespace pibe::opt {

/**
 * Static feasibility of one indirect call site, as computed by the
 * target-set analysis (check/target_sets.h). Defined here as a plain
 * value type so the optimizer does not depend on the checker library:
 * callers that want total promotion compute the map and pass it in.
 */
struct SiteFeasibility
{
    /** Every flow into the site's pointer was resolved; `targets` is
     *  then exhaustive, not just a lower bound. */
    bool complete = false;
    /** Sorted, unique feasible targets. */
    std::vector<ir::FuncId> targets;
};

/** Per-site feasibility, keyed by the icall's SiteId. */
using FeasibilityMap = std::map<ir::SiteId, SiteFeasibility>;

/** Tuning knobs for runIcp(). */
struct IcpConfig
{
    /** Fraction of cumulative indirect weight to promote. */
    double budget = 0.99999;
    /** Optional cap on targets per site (0 = unlimited, the default). */
    uint32_t max_targets_per_site = 0;
    /**
     * Optional static target-set feasibility. When present, sites
     * whose set is complete, non-empty, and small are counted in
     * IcpAudit::total_safe_sites (the Switchpoline precondition).
     * Not owned; must outlive the pass.
     */
    const FeasibilityMap* feasibility = nullptr;
    /**
     * Promote *every* feasible target of total_promotion-safe sites
     * and drop the fallback indirect call entirely — the site's full
     * target set is covered by guarded direct calls, so the indirect
     * branch (and its speculation surface) vanishes. Requires
     * `feasibility`. Off by default: the classic PIBE chain keeps the
     * fallback.
     */
    bool total_promotion = false;
    /** Feasible-set size bound for total promotion. */
    uint32_t total_promotion_max_targets = 8;
};

/** Outcome accounting for Tables 4, 8, and 10. */
struct IcpAudit
{
    /** Total profiled indirect weight ("total weight" in Table 8). */
    uint64_t total_weight = 0;
    /** Weight moved onto promoted direct edges. */
    uint64_t promoted_weight = 0;
    /** Indirect sites with profile data (candidates, Table 10). */
    uint32_t candidate_sites = 0;
    /** Sites rewritten with at least one promoted target. */
    uint32_t promoted_sites = 0;
    /** Total (site, target) pairs promoted. */
    uint32_t promoted_targets = 0;
    /** Total distinct (site, target) pairs profiled. */
    uint32_t candidate_targets = 0;
    /** All indirect call sites in the module (Table 10 denominator). */
    uint32_t total_icall_sites = 0;
    /** Sites where max_targets_per_site truncated promotion: their
     *  fallback icall keeps live targets (residual attack surface the
     *  coverage report must count). */
    uint32_t capped_sites = 0;
    /** Sites safe for total promotion (complete feasible set of
     *  1..total_promotion_max_targets covered targets). */
    uint32_t total_safe_sites = 0;
    /** Fallback icalls actually dropped by total promotion. */
    uint32_t fallbacks_dropped = 0;
    /** Functions mutated by the pass (sorted, unique) — the incremental
     *  invalidation set for a following audit stage. */
    std::vector<ir::FuncId> touched;
};

/** Run indirect call promotion over `module`, updating `profile`. */
IcpAudit runIcp(ir::Module& module, profile::EdgeProfile& profile,
                const IcpConfig& config = {});

} // namespace pibe::opt

#endif // PIBE_OPT_ICP_H_
