#include "runtime/job_graph.h"

#include "runtime/digest.h"
#include "support/timer.h"

namespace pibe::runtime {

JobId
JobGraph::add(std::string name,
              std::function<void(const JobContext&)> fn,
              const std::vector<JobId>& deps)
{
    PIBE_ASSERT(!ran_, "JobGraph::add after run()");
    const JobId id = jobs_.size();
    Job job;
    job.name = name;
    job.fn = std::move(fn);
    job.deps_remaining = deps.size();
    for (JobId dep : deps) {
        PIBE_ASSERT(dep < id, "JobGraph deps must be added first");
        jobs_[dep].dependents.push_back(id);
    }
    jobs_.push_back(std::move(job));
    JobMetrics m;
    m.name = std::move(name);
    metrics_.push_back(std::move(m));
    return id;
}

void
JobGraph::submitJob(ThreadPool& pool, JobId id)
{
    // Called with mu_ held; publication of dependency side effects
    // happens-before the worker picks this task up.
    pool.submit([this, &pool, id, timer = Stopwatch()]() mutable {
        const double queue_wait_ms = timer.lapMs();
        JobContext ctx;
        ctx.id = id;
        ctx.seed = Digest().add(jobs_[id].name).value();
        bool ok = true;
        try {
            jobs_[id].fn(ctx);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!first_error_)
                first_error_ = std::current_exception();
            ok = false;
        }
        const double run_ms = timer.ms();
        {
            std::lock_guard<std::mutex> lock(mu_);
            metrics_[id].queue_wait_ms = queue_wait_ms;
            metrics_[id].run_ms = run_ms;
            // "ran" distinguishes executed jobs from skipped ones; a
            // job that executed and threw still ran.
            metrics_[id].ran = true;
        }
        onJobDone(pool, id, ok);
    });
}

void
JobGraph::skipDependents(JobId id)
{
    // Called with mu_ held.
    for (JobId dep : jobs_[id].dependents) {
        if (jobs_[dep].skipped)
            continue;
        jobs_[dep].skipped = true;
        ++finished_;
        skipDependents(dep);
    }
}

void
JobGraph::onJobDone(ThreadPool& pool, JobId id, bool ok)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    if (!ok) {
        skipDependents(id);
    } else {
        for (JobId dep : jobs_[id].dependents) {
            if (--jobs_[dep].deps_remaining == 0 &&
                !jobs_[dep].skipped) {
                submitJob(pool, dep);
            }
        }
    }
    if (finished_ == jobs_.size())
        done_cv_.notify_all();
}

void
JobGraph::run(ThreadPool& pool)
{
    PIBE_ASSERT(!ran_, "JobGraph::run may only be called once");
    ran_ = true;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (JobId id = 0; id < jobs_.size(); ++id) {
            if (jobs_[id].deps_remaining == 0)
                submitJob(pool, id);
        }
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return finished_ == jobs_.size(); });
    if (first_error_)
        std::rethrow_exception(first_error_);
}

} // namespace pibe::runtime
