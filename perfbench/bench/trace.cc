#include "trace.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer)
{
    if (!tracer_->enabled_)
        return;
    index_ = static_cast<int>(tracer_->records_.size());
    Record r;
    r.name = name;
    r.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    tracer_->records_.push_back(std::move(r));
    tracer_->open_.push_back(index_);
    tracer_->records_[index_].start_ms = tracer_->nowMs();
}

Tracer::Span::~Span()
{
    if (index_ < 0)
        return;
    tracer_->records_[index_].end_ms = tracer_->nowMs();
    tracer_->open_.pop_back();
}

std::map<std::string, double>
Tracer::inclusiveMs() const
{
    std::map<std::string, double> out;
    for (const Record& r : records_)
        out[r.name] += r.end_ms - r.start_ms;
    return out;
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::vector<double> child_ms(records_.size(), 0.0);
    for (const Record& r : records_)
        if (r.parent >= 0)
            child_ms[r.parent] += r.end_ms - r.start_ms;
    std::map<std::string, double> out;
    for (size_t i = 0; i < records_.size(); ++i)
        out[records_[i].name] +=
            records_[i].end_ms - records_[i].start_ms - child_ms[i];
    return out;
}

double
Tracer::totalMs(const std::string& name) const
{
    double ms = 0;
    for (const Record& r : records_)
        if (r.name == name)
            ms += r.end_ms - r.start_ms;
    return ms;
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        out << (i ? "," : "") << "\n{\"name\":\"" << r.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << r.start_ms * 1000 << ",\"dur\":"
            << (r.end_ms - r.start_ms) * 1000 << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << r.parent << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out.good();
}

bool
Tracer::writeSelfTable(const std::string& path) const
{
    std::map<std::string, int> calls;
    for (const Record& r : records_)
        ++calls[r.name];
    const std::map<std::string, double> incl = inclusiveMs();
    const std::map<std::string, double> self = selfMs();
    std::ofstream out(path);
    out << std::setprecision(17) << "span\tcalls\tinclusive_ms\tself_ms\n";
    for (const auto& [name, n] : calls)
        out << name << "\t" << n << "\t" << incl.at(name) << "\t"
            << self.at(name) << "\n";
    return out.good();
}

} // namespace perfbench
