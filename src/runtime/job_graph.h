/**
 * @file
 * DAG job scheduler over the thread pool.
 *
 * The experiment pipeline `build kernel -> collect profile ->
 * buildImage(config) -> measure` is a graph of pure jobs with
 * dependency edges; the scheduler runs every job whose dependencies
 * have completed, so independent image builds and measurements overlap
 * freely while ordering constraints hold.
 *
 * Memory model: a job's side effects are published under the graph
 * mutex before any dependent is handed to the pool, so a job may
 * freely read state written by its dependencies without further
 * synchronization. Jobs with no edge between them must touch disjoint
 * state.
 *
 * Determinism: scheduling order is nondeterministic, but each job gets
 * a JobContext whose seed derives from the job's name digest — all
 * stochastic behaviour inside a job must flow from that seed (or from
 * inputs), which is what makes parallel runs bit-identical to serial.
 */
#ifndef PIBE_RUNTIME_JOB_GRAPH_H_
#define PIBE_RUNTIME_JOB_GRAPH_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"

namespace pibe::runtime {

/** Handle to a job added to a JobGraph. */
using JobId = size_t;

/** Per-job determinism handle, passed to the job body. */
struct JobContext
{
    JobId id = 0;
    /** Stable seed derived from the job name; feed any per-job RNG
     *  from this so results do not depend on scheduling. */
    uint64_t seed = 0;
};

/** Timing record of one executed job. */
struct JobMetrics
{
    std::string name;
    double queue_wait_ms = 0; ///< Ready (deps done) -> started.
    double run_ms = 0;        ///< Started -> finished.
    bool ran = false;         ///< False if skipped (failed dep).
};

/**
 * A one-shot DAG of jobs. Build with add(), execute with run().
 * add() is not thread-safe; call it from one thread before run().
 */
class JobGraph
{
  public:
    /**
     * Add a job depending on `deps` (which must already be added —
     * this makes cycles unrepresentable by construction).
     */
    JobId add(std::string name,
              std::function<void(const JobContext&)> fn,
              const std::vector<JobId>& deps = {});

    /**
     * Execute the graph on `pool`, blocking until every job has
     * completed or been skipped. If a job throws, its dependents are
     * skipped and the first exception is rethrown after the graph
     * drains. May be called once.
     */
    void run(ThreadPool& pool);

    /** Per-job timing, in add() order. Valid after run(). */
    const std::vector<JobMetrics>& metrics() const { return metrics_; }

  private:
    struct Job
    {
        std::string name;
        std::function<void(const JobContext&)> fn;
        std::vector<JobId> dependents;
        size_t deps_remaining = 0;
        bool skipped = false;
    };

    void onJobDone(ThreadPool& pool, JobId id, bool ok);
    void submitJob(ThreadPool& pool, JobId id);
    void skipDependents(JobId id);

    std::vector<Job> jobs_;
    std::vector<JobMetrics> metrics_;

    std::mutex mu_;
    std::condition_variable done_cv_;
    size_t finished_ = 0;
    bool ran_ = false;
    std::exception_ptr first_error_;
};

} // namespace pibe::runtime

#endif // PIBE_RUNTIME_JOB_GRAPH_H_
