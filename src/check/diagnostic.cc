#include "check/diagnostic.h"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace pibe::check {

const char*
severityName(Severity s)
{
    switch (s) {
      case Severity::kNote:    return "note";
      case Severity::kWarning: return "warning";
      case Severity::kError:   return "error";
    }
    return "?";
}

std::string
Diagnostic::render() const
{
    std::ostringstream os;
    os << severityName(severity) << "[" << check_id << "]";
    if (!pass.empty())
        os << " after " << pass;
    if (func != ir::kInvalidFunc) {
        os << " " << func_name;
        if (inst >= 0)
            os << " bb" << block << "[" << inst << "]";
    }
    if (site != ir::kNoSite)
        os << " (site " << site << ")";
    os << ": " << message;
    if (!hint.empty())
        os << " (hint: " << hint << ")";
    return os.str();
}

Json
Diagnostic::toJson() const
{
    Json j = Json::object();
    j.set("check", check_id);
    j.set("severity", severityName(severity));
    if (!pass.empty())
        j.set("pass", pass);
    if (func != ir::kInvalidFunc) {
        j.set("func", func_name);
        j.set("func_id", func);
        if (inst >= 0) {
            j.set("block", block);
            j.set("inst", inst);
        }
    }
    if (site != ir::kNoSite)
        j.set("site", site);
    j.set("message", message);
    if (!hint.empty())
        j.set("hint", hint);
    return j;
}

void
sortDiagnostics(std::vector<Diagnostic>& diags)
{
    // kInvalidFunc is the largest FuncId, so module-scoped findings
    // naturally sort last.
    auto key = [](const Diagnostic& d) {
        return std::make_tuple(d.func, d.block, d.inst,
                               std::cref(d.check_id), d.site,
                               std::cref(d.message));
    };
    std::stable_sort(diags.begin(), diags.end(),
                     [&](const Diagnostic& a, const Diagnostic& b) {
                         return key(a) < key(b);
                     });
}

size_t
countSeverity(const std::vector<Diagnostic>& diags, Severity s)
{
    size_t n = 0;
    for (const Diagnostic& d : diags)
        n += d.severity == s;
    return n;
}

std::string
renderText(const std::vector<Diagnostic>& diags)
{
    std::string out;
    for (const Diagnostic& d : diags) {
        out += d.render();
        out += "\n";
    }
    return out;
}

} // namespace pibe::check
