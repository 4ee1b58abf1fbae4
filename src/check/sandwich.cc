#include "check/sandwich.h"

#include <algorithm>

namespace pibe::check {

namespace {

/** Stage-independent identity of a finding (no pass field). */
std::string
locationKey(const Diagnostic& d)
{
    return d.check_id + "|" + d.func_name + "|" +
           std::to_string(d.block) + "|" + std::to_string(d.inst) +
           "|" + std::to_string(d.site) + "|" + d.message;
}

} // namespace

const Diagnostic*
StageResult::firstFreshError() const
{
    for (const Diagnostic& d : fresh)
        if (d.severity == Severity::kError)
            return &d;
    return nullptr;
}

const StageResult&
PassSandwich::afterPass(const std::string& pass,
                        const ir::Module& module,
                        const CheckOptions& opts, AnalysisManager* am)
{
    CheckReport report = runChecks(module, opts, am);

    StageResult stage;
    stage.pass = pass;
    stage.errors = report.errors();
    stage.warnings = report.warnings();

    std::vector<std::string> keys;
    keys.reserve(report.diags.size());
    std::map<std::string, size_t> errors_by_check;
    for (const Diagnostic& d : report.diags) {
        keys.push_back(locationKey(d));
        if (d.severity == Severity::kError)
            ++errors_by_check[d.check_id];
    }

    std::vector<std::string> prev_sorted = prev_keys_;
    std::sort(prev_sorted.begin(), prev_sorted.end());
    for (size_t i = 0; i < report.diags.size(); ++i) {
        if (std::binary_search(prev_sorted.begin(), prev_sorted.end(),
                               keys[i]))
            continue;
        Diagnostic d = report.diags[i];
        d.pass = pass;
        stage.fresh.push_back(std::move(d));
    }

    if (have_baseline_) {
        for (const auto& [check, count] : errors_by_check) {
            auto it = prev_errors_.find(check);
            const size_t prev = it == prev_errors_.end() ? 0 : it->second;
            if (count > prev)
                stage.regressed_checks.push_back(check);
        }
    }

    prev_keys_ = std::move(keys);
    prev_errors_ = std::move(errors_by_check);
    have_baseline_ = true;

    stages_.push_back(std::move(stage));
    return stages_.back();
}

} // namespace pibe::check
