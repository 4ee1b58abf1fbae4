/**
 * @file
 * Mechanics of inlining one direct call site in PIR.
 *
 * This is policy-free: deciding *which* sites to inline is the job of
 * the inliner passes (pibe_inliner.h, default_inliner.h); this header
 * implements the transformation itself plus the legality predicate
 * shared by all policies.
 */
#ifndef PIBE_OPT_INLINE_CORE_H_
#define PIBE_OPT_INLINE_CORE_H_

#include <vector>

#include "ir/module.h"

namespace pibe::opt {

/**
 * A call site of the callee that was copied into the caller by an
 * inline step. The inliner uses these to propagate scaled execution
 * counts onto the inherited sites (§5.2 Rule 1's constant-ratio
 * heuristic).
 */
struct InheritedSite
{
    ir::SiteId new_site = ir::kNoSite;    ///< Fresh id in the caller.
    ir::SiteId callee_site = ir::kNoSite; ///< Original id in the callee.
    bool indirect = false;                ///< kICall rather than kCall.
    /** Static callee of an inherited direct call (kInvalidFunc for
     *  indirect sites) — lets policies re-queue inherited candidates
     *  without re-scanning the caller. */
    ir::FuncId callee = ir::kInvalidFunc;
};

/** Result of an inlineCallSite() application. */
struct InlineOutcome
{
    bool ok = false;
    const char* reason = nullptr; ///< Refusal reason when !ok.
    std::vector<InheritedSite> inherited;
};

/**
 * Why a direct call site must not be inlined, or nullptr if it is
 * legal. Checks attributes (noinline/optnone/external), declarations,
 * and direct self-recursion; mutual recursion must be screened by the
 * caller via CallGraph::isRecursive.
 */
const char* inlineRefusalReason(const ir::Module& module,
                                ir::FuncId caller,
                                const ir::Instruction& call);

/**
 * Inline the direct call carrying `site` inside function `caller`.
 *
 * On success, the call instruction is replaced by argument moves and a
 * branch into a copy of the callee's blocks; callee returns become
 * moves plus branches to the continuation; every call site copied from
 * the callee gets a fresh SiteId (reported via InlineOutcome so the
 * policy can assign inherited weights). The caller's register count
 * and frame size grow by the callee's.
 */
InlineOutcome inlineCallSite(ir::Module& module, ir::FuncId caller,
                             ir::SiteId site);

} // namespace pibe::opt

#endif // PIBE_OPT_INLINE_CORE_H_
