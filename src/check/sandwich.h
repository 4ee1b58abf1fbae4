/**
 * @file
 * Pass sandwich: run the checker suite between pipeline passes and
 * attribute new findings to the pass that introduced them.
 *
 * The pipeline calls afterPass() once per stage (including an "input"
 * stage before any pass). Each call runs the suite, diffs against the
 * previous stage, stamps every fresh diagnostic with the pass name,
 * and reports whether the stage *regressed* — i.e. raised the error
 * count of some check id above the previous stage's. The count
 * comparison (rather than a pure location diff) keeps pre-existing
 * findings from re-triggering when a pass renumbers blocks or sites.
 */
#ifndef PIBE_CHECK_SANDWICH_H_
#define PIBE_CHECK_SANDWICH_H_

#include <map>
#include <string>
#include <vector>

#include "check/checks.h"

namespace pibe::check {

/** Outcome of one sandwich stage. */
struct StageResult
{
    std::string pass;
    /** Diagnostics not present (by location) at the previous stage,
     *  each with Diagnostic::pass set to the stage name. */
    std::vector<Diagnostic> fresh;
    /** Check ids whose error count exceeds the previous stage's. */
    std::vector<std::string> regressed_checks;
    /** Totals after this stage (all findings, not just fresh). */
    size_t errors = 0;
    size_t warnings = 0;

    bool regressed() const { return !regressed_checks.empty(); }

    /** First fresh error-severity diagnostic, or nullptr. */
    const Diagnostic* firstFreshError() const;
};

class PassSandwich
{
  public:
    /**
     * Run the suite over `module` with `opts` and record the stage.
     * The first call establishes the baseline: its findings are all
     * "fresh" but never count as a regression.
     *
     * When `am` is provided the suite reuses its cached per-function
     * analyses — the incremental contract: the caller invalidates
     * exactly the functions the preceding pass touched, so untouched
     * functions are re-audited from cache instead of recomputed.
     */
    const StageResult& afterPass(const std::string& pass,
                                 const ir::Module& module,
                                 const CheckOptions& opts,
                                 AnalysisManager* am = nullptr);

    const std::vector<StageResult>& stages() const { return stages_; }

  private:
    std::vector<StageResult> stages_;
    /** Location keys seen at the previous stage. */
    std::vector<std::string> prev_keys_;
    /** Error count per check id at the previous stage. */
    std::map<std::string, size_t> prev_errors_;
    bool have_baseline_ = false;
};

} // namespace pibe::check

#endif // PIBE_CHECK_SANDWICH_H_
