/**
 * @file
 * Per-function analysis cache.
 *
 * Checkers share analyses (the coverage auditor and the lints both
 * want reachability; the dead-store and use-before-def lints both sit
 * on liveness/assignment facts), so the manager computes each analysis
 * lazily, once per function, and hands out const references. A pass
 * that mutates a function must invalidate() it before querying again.
 */
#ifndef PIBE_CHECK_ANALYSIS_MANAGER_H_
#define PIBE_CHECK_ANALYSIS_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "check/cfg.h"
#include "check/dataflow.h"
#include "check/target_sets.h"

namespace pibe::check {

class AnalysisManager
{
  public:
    explicit AnalysisManager(const ir::Module& module)
        : module_(module), entries_(module.numFunctions())
    {
    }

    const ir::Module& module() const { return module_; }

    /** @pre func has a body (declarations have no analyses). */
    const Cfg& cfg(ir::FuncId f);
    const Liveness& liveness(ir::FuncId f);
    const FrameLiveness& frameLiveness(ir::FuncId f);
    const ReachingDefs& reachingDefs(ir::FuncId f);
    const DefiniteAssignment& definiteAssignment(ir::FuncId f);

    /**
     * The module-level feasible-target analysis (built lazily once,
     * then kept incrementally up to date through invalidate()). When
     * `roots` differs from the cached instance's roots the analysis is
     * rebuilt from scratch.
     */
    TargetSetAnalysis&
    targetSets(const std::vector<std::string>& roots = {})
    {
        if (targets_ && targets_->roots() != roots)
            targets_.reset();
        if (!targets_) {
            targets_ =
                std::make_unique<TargetSetAnalysis>(module_, roots);
            ++computations_;
        } else {
            ++hits_;
        }
        return *targets_;
    }

    /** Drop every cached analysis of `f` (call after mutating it). */
    void
    invalidate(ir::FuncId f)
    {
        // Functions added after construction have nothing cached yet.
        if (f < entries_.size())
            entries_[f] = Entry{};
        if (targets_)
            targets_->invalidateFunction(f);
    }

    /** Analyses computed since construction (cache-miss counter). */
    size_t computations() const { return computations_; }

    /** Cached results served since construction (cache-hit counter). */
    size_t hits() const { return hits_; }

  private:
    struct Entry
    {
        std::unique_ptr<Cfg> cfg;
        std::unique_ptr<Liveness> live;
        std::unique_ptr<FrameLiveness> frame_live;
        std::unique_ptr<ReachingDefs> reaching;
        std::unique_ptr<DefiniteAssignment> assigned;
    };

    Entry&
    entry(ir::FuncId f)
    {
        PIBE_ASSERT(f < module_.numFunctions(), "bad FuncId ", f);
        PIBE_ASSERT(!module_.func(f).isDeclaration(),
                    "analysis of declaration ", module_.func(f).name);
        // Passes may add functions (ICP continuation splits never do,
        // but future passes might); grow rather than assert so one
        // manager can span a whole pass pipeline.
        if (f >= entries_.size())
            entries_.resize(module_.numFunctions());
        return entries_[f];
    }

    const ir::Module& module_;
    std::vector<Entry> entries_;
    std::unique_ptr<TargetSetAnalysis> targets_;
    size_t computations_ = 0;
    size_t hits_ = 0;
};

} // namespace pibe::check

#endif // PIBE_CHECK_ANALYSIS_MANAGER_H_
