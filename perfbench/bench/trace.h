/**
 * @file
 * The benchmark's span tracer.
 *
 * Spans are recorded by the benchmark around its calls into the
 * system's public functions (never inside the system). They stay in
 * memory and are written when the run ends, as a Chrome trace-event
 * file and as a flat self-time table.
 *
 * A span's self time is its duration minus the time covered by its
 * direct children. The sum of all self times plus the root's
 * unattributed time equals the root's duration. The tracer is
 * single-threaded: open spans only from the thread that created it.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch. */
    explicit Tracer(bool enabled);

    /** RAII span; closes when destroyed. */
    class Span
    {
      public:
        Span(Tracer* tracer, const char* name);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        Tracer* tracer_;
        int index_ = -1;
    };

    Span span(const char* name) { return Span(this, name); }

    struct Record
    {
        std::string name;
        double start_ms = 0;
        double end_ms = 0;
        int parent = -1;
    };

    /** Sum of span durations per name (ms). */
    std::map<std::string, double> inclusiveMs() const;
    /** Sum of span self times per name (ms). */
    std::map<std::string, double> selfMs() const;
    /** Sum of durations of all spans named `name` (ms). */
    double totalMs(const std::string& name) const;

    /** Chrome trace-event JSON ("X" complete events, one thread). */
    bool writeChromeTrace(const std::string& path) const;
    /** Tab-separated table: name, calls, inclusive ms, self ms. */
    bool writeSelfTable(const std::string& path) const;

  private:
    double nowMs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
