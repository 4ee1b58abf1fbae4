#include "check/diagnostic.h"

#include <algorithm>
#include <cstdio>
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
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
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

std::string
Diagnostic::renderJson() const
{
    std::ostringstream os;
    os << "{\"check\":\"" << jsonEscape(check_id) << "\""
       << ",\"severity\":\"" << severityName(severity) << "\"";
    if (!pass.empty())
        os << ",\"pass\":\"" << jsonEscape(pass) << "\"";
    if (func != ir::kInvalidFunc) {
        os << ",\"func\":\"" << jsonEscape(func_name) << "\""
           << ",\"func_id\":" << func;
        if (inst >= 0)
            os << ",\"block\":" << block << ",\"inst\":" << inst;
    }
    if (site != ir::kNoSite)
        os << ",\"site\":" << site;
    os << ",\"message\":\"" << jsonEscape(message) << "\"";
    if (!hint.empty())
        os << ",\"hint\":\"" << jsonEscape(hint) << "\"";
    os << "}";
    return os.str();
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

std::string
renderJson(const std::vector<Diagnostic>& diags)
{
    std::string out = "[";
    for (size_t i = 0; i < diags.size(); ++i) {
        out += i ? ",\n " : "\n ";
        out += diags[i].renderJson();
    }
    out += diags.empty() ? "]" : "\n]";
    return out;
}

} // namespace pibe::check
