/**
 * @file
 * Interprocedural function-pointer target-set analysis.
 *
 * An Andersen-style, flow- and field-insensitive points-to analysis
 * over the function-pointer fragment of PIR: the only abstract values
 * tracked are function addresses (ir::funcAddrValue). For every
 * indirect call site it computes the set of functions the call can
 * feasibly reach, plus a completeness bit that records whether every
 * flow into the site's pointer was resolved.
 *
 * Abstract locations ("nodes"): one per (function, register), one per
 * (function, frame slot), one per function return value, and one per
 * Global (arrays are collapsed to a single node — field-insensitive,
 * which matches how op-tables are used: any slot may reach any load).
 *
 * Constraint rules (see DESIGN.md §10 for the soundness argument):
 *  - kConst of a func-addr value and kFuncAddr seed pts(dst);
 *  - kMove / kFrameLoad / kFrameStore add copy edges;
 *  - kLoad adds global -> dst, kStore adds src -> global (indices
 *    ignored: field-insensitive);
 *  - kCall adds arg -> param and ret(callee) -> dst edges; callees
 *    without bodies (declarations / kAttrExternal) make dst incomplete;
 *  - kICall wires arg/ret edges dynamically as pts(ptr) grows, for
 *    targets whose arity matches;
 *  - arithmetic kBinOp taints: if an operand may hold a func addr the
 *    result is incomplete (pointer bits escaped into math we do not
 *    model); comparisons yield 0/1 and are ignored;
 *  - root function parameters (module entry points) are incomplete:
 *    the caller is outside the module;
 *  - an icall through an incomplete pointer may invoke any
 *    address-taken function, so it taints every address-taken
 *    function's parameters and its own result.
 *
 * Incompleteness is sticky and propagates along the same edges as
 * target sets. The analysis is a least fixpoint of a monotone
 * constraint system, so the solution is independent of solve order —
 * serial and parallel audits see bit-identical sets.
 *
 * The analysis is incremental at summary granularity: constraints are
 * extracted per function and cached; invalidateFunction(f) marks one
 * summary dirty and the next query re-extracts only that summary
 * before re-running the (cheap, module-wide) fixpoint.
 *
 * The fixpoint is a plain worklist (see DESIGN.md §11): whole sets
 * travel along subset edges until nothing changes. Only the solution
 * outlives a solve; the edge lists and the worklist are freed on
 * return.
 */
#ifndef PIBE_CHECK_TARGET_SETS_H_
#define PIBE_CHECK_TARGET_SETS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/module.h"
#include "opt/icp.h"
#include "support/json.h"

namespace pibe::check {

/** Feasible targets of one abstract location. */
struct TargetSet
{
    /** Sorted, unique function ids. */
    std::vector<ir::FuncId> targets;
    /** True if some flow into the location was not resolved; the set
     *  is then a lower bound and must be treated as "any address-taken
     *  function". */
    bool incomplete = false;

    bool
    contains(ir::FuncId f) const
    {
        for (ir::FuncId t : targets)
            if (t == f)
                return true;
        return false;
    }
};

/** Resolved feasible-target facts for one indirect call site. */
struct SiteTargets
{
    ir::SiteId site = ir::kNoSite;
    ir::FuncId func = ir::kInvalidFunc;
    ir::BlockId block = 0;
    uint32_t index = 0;       ///< Instruction index within the block.
    ir::Reg ptr = ir::kNoReg; ///< The called pointer register.
    bool is_asm = false;
    bool incomplete = false;
    /** Sorted, unique feasible targets (meaningful even when
     *  incomplete: the resolved lower bound). */
    std::vector<ir::FuncId> targets;

    bool complete() const { return !incomplete; }
};

/** A global initializer slot that decodes to a nonexistent function. */
struct BadGlobalSlot
{
    ir::GlobalId global = ir::kInvalidGlobal;
    size_t slot = 0;
    int64_t value = 0;
};

/** Counters from the most recent fixpoint solve. */
struct SolverStats
{
    uint32_t nodes = 0; ///< Abstract locations.
    uint64_t pops = 0;  ///< Worklist pops to fixpoint.
};

class TargetSetAnalysis
{
  public:
    /**
     * @param roots Entry-point function names whose parameters are
     *        supplied from outside the module (incomplete). Empty =
     *        the conventional entries: kernel_init, sys_dispatch, main.
     */
    explicit TargetSetAnalysis(const ir::Module& module,
                               std::vector<std::string> roots = {});

    const ir::Module& module() const { return module_; }
    const std::vector<std::string>& roots() const { return roots_; }

    /** Mark one function's constraint summary stale (call after
     *  mutating it). The next query re-extracts only this summary. */
    void invalidateFunction(ir::FuncId f);

    /** Per-site feasible targets, keyed by SiteId (solves lazily). */
    const std::map<ir::SiteId, SiteTargets>& sites();

    /** One site's facts; nullptr if the site id is not an icall. */
    const SiteTargets* site(ir::SiteId s);

    /** Feasible targets of register `r` in function `f`. */
    TargetSet regTargets(ir::FuncId f, ir::Reg r);

    /** Sorted ids of every address-taken function (the pool an
     *  unresolved pointer may range over). */
    const std::vector<ir::FuncId>& addressTaken();

    /** Global initializer slots holding invalid function addresses. */
    const std::vector<BadGlobalSlot>& badGlobalSlots();

    /**
     * Force the lazy fixpoint now. After this returns — and until the
     * next invalidateFunction call — the query methods (sites, site,
     * regTargets, addressTaken, badGlobalSlots) only read solved
     * state and are safe to call from multiple threads concurrently
     * (runChecks and runChecksParallel pre-solve serially, then share
     * one instance across shards).
     */
    void ensureSolved() { sites(); }

    /** Fixpoint solves run so far (grows on query-after-invalidate). */
    size_t solves() const { return solves_; }

    /** Function summaries (re)extracted so far. The incremental
     *  contract: after invalidateFunction(f), the next solve grows
     *  this by exactly one. */
    size_t summariesExtracted() const { return summaries_extracted_; }

    /** Counters from the most recent solve (pibe check --timing). */
    const SolverStats& solverStats() const { return stats_; }

  private:
    // One abstract-location constraint, extracted per function.
    struct Constraint
    {
        enum class Kind : uint8_t {
            kSeed,       // pts(dst reg) += {target}
            kCopy,       // dst reg ⊇ src reg
            kTaint,      // pts(src reg) ≠ ∅ or incomplete => dst incomplete
            kLoadGlobal, // dst reg ⊇ global
            kStoreGlobal,// global ⊇ src reg
            kFrameLoad,  // dst reg ⊇ frame slot
            kFrameStore, // frame slot ⊇ src reg
            kCallArg,    // param reg of callee ⊇ src reg
            kCallRet,    // dst reg ⊇ ret(callee)
            kRet,        // ret(this function) ⊇ src reg
            kIncomplete, // dst reg incomplete
        };
        Kind kind;
        uint32_t dst = 0; // reg / frame slot / global id / param index
        uint32_t src = 0; // reg
        ir::FuncId callee = ir::kInvalidFunc;
        ir::FuncId target = ir::kInvalidFunc;
    };

    // One indirect call site, recorded during summary extraction.
    struct IcallRecord
    {
        ir::SiteId site = ir::kNoSite;
        ir::BlockId block = 0;
        uint32_t index = 0;
        ir::Reg ptr = ir::kNoReg;
        ir::Reg dst = ir::kNoReg;
        std::vector<ir::Reg> args;
        bool is_asm = false;
    };

    struct FuncSummary
    {
        std::vector<Constraint> constraints;
        std::vector<IcallRecord> icalls;
        bool dirty = true;
    };

    void extractSummary(ir::FuncId f);
    void solve();
    void layoutNodes();
    uint32_t regNode(ir::FuncId f, ir::Reg r) const;
    uint32_t frameNode(ir::FuncId f, uint32_t slot) const;
    uint32_t retNode(ir::FuncId f) const;
    uint32_t globalNode(ir::GlobalId g) const;

    const ir::Module& module_;
    std::vector<std::string> roots_;

    std::vector<FuncSummary> summaries_;
    bool solved_ = false;
    size_t solves_ = 0;
    size_t summaries_extracted_ = 0;

    // Node layout of the last solve.
    std::vector<uint32_t> reg_base_;
    std::vector<uint32_t> frame_base_;
    std::vector<uint32_t> ret_node_;
    uint32_t global_base_ = 0;
    uint32_t num_nodes_ = 0;

    // Solution of the last solve: one sorted set per node.
    std::vector<std::vector<ir::FuncId>> pts_;
    std::vector<bool> incomplete_;
    std::map<ir::SiteId, SiteTargets> sites_;
    std::vector<ir::FuncId> address_taken_;
    std::vector<BadGlobalSlot> bad_slots_;

    SolverStats stats_;
};

/**
 * Extract an opt::FeasibilityMap (per-site complete bit + feasible
 * targets) for the ICP planner's total-promotion precondition.
 */
opt::FeasibilityMap feasibilityMap(TargetSetAnalysis& analysis);

// --- residual-attack-surface report (`pibe surface`) ---

/** Surface metrics for one DefenseConfig. */
struct SurfaceDefenseRow
{
    std::string defense;
    uint32_t protected_icalls = 0;   ///< Sites behind a fwd scheme.
    uint32_t unprotected_icalls = 0; ///< Asm sites / no fwd scheme.
    /** Σ allowed targets per site: |pts| where complete and protected,
     *  else the whole address-taken pool. */
    uint64_t residual_target_pairs = 0;
    /** AIR-style score: 1 - avg(allowed_i / pool). 1.0 = every site
     *  fully constrained; 0.0 = every site may reach the whole pool. */
    double air = 0.0;
};

/** The full `pibe surface` report. */
struct SurfaceReport
{
    std::string module_name;
    uint32_t functions = 0;
    uint32_t address_taken = 0;
    uint32_t icall_sites = 0;
    uint32_t asm_sites = 0;
    uint32_t complete_sites = 0;
    uint32_t incomplete_sites = 0;
    /** Complete sites with 0 < |set| <= max_targets — candidates for
     *  total promotion / Switchpoline conversion. */
    uint32_t switchpoline_eligible = 0;
    uint32_t max_targets = 0; ///< The eligibility knob used above.
    double avg_targets = 0.0; ///< Mean |set| over complete sites.
    /** Histogram over complete sites: |set| -> number of sites. */
    std::map<uint32_t, uint32_t> set_size_hist;
    std::vector<SurfaceDefenseRow> defenses;
};

/** Compute the report over the canonical DefenseConfigs. */
SurfaceReport buildSurfaceReport(TargetSetAnalysis& analysis,
                                 uint32_t max_targets);

/** Human-readable report (tables). */
std::string renderSurfaceText(const SurfaceReport& rep);

/** The report as one JSON object (the BENCH_surface.json payload). */
Json toJson(const SurfaceReport& rep);

} // namespace pibe::check

#endif // PIBE_CHECK_TARGET_SETS_H_
