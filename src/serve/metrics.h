/**
 * @file
 * Request-level metrics of the serve daemon.
 *
 * Counters are cumulative since boot; latency is kept as a capped
 * sample buffer (uniform reservoir once full) so p50/p99 stay cheap
 * and bounded no matter how long the daemon runs. Snapshots render as
 * JSON (the `metrics` request) or as a Prometheus-style text dump
 * (`metrics` with {"format":"text"}) for scrape-style consumers.
 */
#ifndef PIBE_SERVE_METRICS_H_
#define PIBE_SERVE_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/artifact_cache.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/timer.h"

namespace pibe::serve {

/** Aggregate view of one op's requests. */
struct OpStats
{
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t coalesced = 0; ///< Served by joining an in-flight twin.
    double ms_total = 0;
};

/** Point-in-time copy of every counter. */
struct MetricsSnapshot
{
    std::map<std::string, OpStats> by_op;
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t coalesced = 0;
    uint64_t connections = 0;        ///< Accepted since boot.
    uint64_t auth_rejected = 0;      ///< Requests refused pre-auth.
    uint32_t inflight = 0;           ///< Requests being handled now.
    uint32_t peak_inflight = 0;
    double admission_wait_ms_total = 0;
    double uptime_s = 0;
    double p50_ms = 0; ///< Over the latency reservoir.
    double p99_ms = 0;
    runtime::CacheStats cache;

    Json toJson() const;
    /** Prometheus-style `# HELP`-free text exposition. */
    std::string renderText() const;
};

/** Thread-safe metrics registry. */
class ServeMetrics
{
  public:
    ServeMetrics();

    /** Record one handled request. */
    void recordRequest(const std::string& op, bool ok, double ms,
                       bool coalesced);

    /** Record time spent waiting for an admission slot. */
    void recordAdmissionWait(double ms);

    void recordConnection();

    /** A request was refused on an unauthenticated connection. */
    void recordAuthReject();

    /** Request-handling began (gauge up). */
    void enterRequest();
    /** Request-handling finished (gauge down). */
    void leaveRequest();

    /** Snapshot all counters; `cache` stats are merged in. */
    MetricsSnapshot snapshot(const runtime::CacheStats& cache) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, OpStats> by_op_;
    uint64_t connections_ = 0;
    uint64_t auth_rejected_ = 0;
    uint32_t inflight_ = 0;
    uint32_t peak_inflight_ = 0;
    double admission_wait_ms_total_ = 0;
    uint64_t samples_seen_ = 0;
    std::vector<double> latency_ms_; ///< Reservoir, capped.
    Rng reservoir_rng_;
    Stopwatch uptime_; ///< Runs from construction (daemon boot).
};

} // namespace pibe::serve

#endif // PIBE_SERVE_METRICS_H_
