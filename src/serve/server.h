/**
 * @file
 * `pibe serve` — the optimize/measure/check pipeline as a long-running
 * concurrent service.
 *
 * One daemon process owns:
 *
 *  - the pipeline context (synthetic kernel + canonical training
 *    profile for one KernelConfig), built once on first demand;
 *  - one shared runtime::ThreadPool that every request's job graph is
 *    admitted into, so a heavy optimize cannot starve cheap measures
 *    — fairness comes from the pool, not per-request threads;
 *  - the runtime::ArtifactCache promoted to a shared tier: disk-backed,
 *    LRU-evicted under --cache-budget, safe against concurrent
 *    processes (lockfile + atomic rename);
 *  - a Batcher that single-flights compatible requests (same cache
 *    key) so concurrent duplicates are computed once;
 *  - a registry of decoded images (decode once per image, shared by
 *    every measurement of it);
 *  - a ControlPlane of runtime-togglable knobs (default defense,
 *    admission limit, cache budget, check fail threshold) in the
 *    spec_ctrl debugfs idiom;
 *  - ServeMetrics, exposed via the `metrics` request as JSON or a
 *    Prometheus-style text dump.
 *
 * Determinism: requests resolve through the same staged entry points
 * (core::kernelTextCached / profileTextCached / imageTextCached /
 * measureWorkloadCached) and therefore the same cache keys as the
 * one-shot CLI and the table benchmarks — a daemon answer is
 * bit-identical to the CLI answer for the same request.
 *
 * Request ops: ping, optimize, measure, check, metrics, config,
 * shutdown. See protocol.h for the envelope and DESIGN.md §7 for the
 * full parameter reference.
 */
#ifndef PIBE_SERVE_SERVER_H_
#define PIBE_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harden/harden.h"
#include "kernel/kernel.h"
#include "pibe/engine.h"
#include "runtime/artifact_cache.h"
#include "runtime/thread_pool.h"
#include "serve/batcher.h"
#include "serve/control.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "uarch/decoded_module.h"

namespace pibe::serve {

/** Daemon configuration (CLI flags of `pibe serve`). */
struct ServeOptions
{
    /** Unix socket path ("" = disabled). */
    std::string socket_path = "/tmp/pibe-serve.sock";
    /** Localhost TCP port (-1 = disabled, 0 = ephemeral). */
    int tcp_port = -1;
    /** Shared pool workers (0 = hardware concurrency). */
    unsigned jobs = 0;
    /** Disk cache directory ("" = memory tiers only). */
    std::string cache_dir;
    /** Disk-tier LRU budget in bytes (0 = unlimited). */
    uint64_t cache_budget = 0;
    /** Memory-tier LRU budget in bytes (0 = unlimited). */
    uint64_t mem_budget = 512ull << 20;
    /** The daemon's pipeline context (fixed per process). */
    kernel::KernelConfig kernel;
    uint32_t profile_base_iters = 120;
    /** Concurrent heavy requests admitted (0 = 2 * jobs). */
    unsigned max_inflight = 0;
    /** Defense applied when a request names none (control knob). */
    std::string default_defense = "all";
    /** `check` severity gate when a request names none (knob). */
    std::string fail_on = "error";
    /**
     * Pre-shared token required on TCP connections ("" = open). A
     * TCP session must authenticate with `{"op":"auth","params":
     * {"token":...}}` before any other op; every pre-auth request is
     * refused and counted in ServeMetrics. Unix-socket sessions are
     * trusted via filesystem permissions and never challenged.
     */
    std::string auth_token;
};

/**
 * Parse an OptConfig from request params (icp_budget, inline_budget,
 * inliner, lax). Returns false and sets `error` on invalid values.
 * Exposed so the load generator's --verify path parses params through
 * the exact code the daemon uses.
 */
bool optConfigFromJson(const Json& params, core::OptConfig* out,
                       std::string* error);

/** Adjustable counting gate for request admission. */
class AdmissionGate
{
  public:
    explicit AdmissionGate(unsigned limit) : limit_(limit) {}

    /** Block until a slot frees; returns the wait in ms. */
    double acquire();
    void release();

    /** Runtime-adjustable (control plane); waiters are re-evaluated. */
    void setLimit(unsigned limit);
    unsigned limit() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    unsigned limit_;
    unsigned inflight_ = 0;
};

/** The daemon. */
class Server
{
  public:
    explicit Server(ServeOptions opts);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Bind the configured listeners and start accepting. False if no
     * listener could be bound.
     */
    bool start();

    /**
     * Block until requestStop(), then tear down: stop listeners,
     * close sessions, drain the pool.
     */
    void wait();

    /** Ask the daemon to stop (thread-safe). */
    void requestStop();

    /** Async-signal-safe stop trigger (atomic store only). */
    void requestStopFromSignal() { stop_requested_.store(true); }

    /** Actual TCP port after start() (useful with tcp_port = 0). */
    uint16_t tcpPort() const { return tcp_port_; }

    const ServeOptions& options() const { return opts_; }

    /**
     * Dispatch one request envelope to its op handler and return the
     * response envelope. This is the whole request semantics —
     * sessions call it per frame, tests call it directly.
     */
    Json handle(const Json& request);

    MetricsSnapshot metricsSnapshot() const;

  private:
    /** Pipeline context: kernel + training profile, built once. */
    struct Context
    {
        std::string kernel_text;
        std::unique_ptr<ir::Module> kernel;
        kernel::KernelInfo info;
        std::string profile_text;
        profile::EdgeProfile profile;
    };

    /** One production image, decoded once, shared by measurements. */
    struct ImageEntry
    {
        std::string key;
        std::string text;
        std::unique_ptr<ir::Module> module;
        kernel::KernelInfo info;
        std::shared_ptr<const uarch::DecodedModule> decoded;
        harden::DefenseConfig defense;
    };

    using ContextPtr = std::shared_ptr<const Context>;
    using ImagePtr = std::shared_ptr<const ImageEntry>;

    void registerKnobs();
    ContextPtr context();

    /** Resolve params to an image (build + decode on miss). */
    ImagePtr resolveImage(const Json& params, std::string* error,
                          bool* coalesced);
    ImagePtr imageFromRegistry(const std::string& key);
    void registerImage(ImagePtr entry);

    harden::DefenseConfig defenseFromParams(const Json& params,
                                            std::string* error);

    Json handlePing(const Json& params);
    Json handleOptimize(const Json& params, bool* coalesced);
    Json handleMeasure(const Json& params, bool* coalesced);
    Json handleCheck(const Json& params, bool* coalesced);
    Json handleMetrics(const Json& params);
    Json handleConfig(const Json& params);

    void acceptLoop(int listen_fd, bool requires_auth);
    void reapFinishedSessions();

    /**
     * Per-connection gate in front of handle(): until `authed` flips,
     * only a correct `auth` op is accepted; everything else gets an
     * unauthorized error and bumps the rejected-auth counter.
     */
    Json handleWithAuth(const Json& request,
                        std::atomic<bool>& authed);

    ServeOptions opts_;
    runtime::ArtifactCache cache_;
    runtime::ThreadPool pool_;
    AdmissionGate gate_;
    ServeMetrics metrics_;
    ControlPlane control_;

    Batcher<ContextPtr> context_flight_;
    Batcher<ImagePtr> image_flight_;
    Batcher<core::Measurement> measure_flight_;

    std::mutex ctx_mu_;
    ContextPtr ctx_; ///< Set once by the first context() leader.

    std::mutex images_mu_;
    struct ImageSlot
    {
        ImagePtr entry;
        uint64_t last_use = 0;
    };
    std::map<std::string, ImageSlot> images_;
    uint64_t image_tick_ = 0;

    std::mutex knobs_mu_; ///< Guards the string-valued knob state.
    std::string default_defense_;
    std::string fail_on_;

    std::set<std::string> valid_workloads_;

    // Listener / session plumbing.
    std::vector<int> listen_fds_;
    std::vector<std::thread> accept_threads_;
    uint16_t tcp_port_ = 0;
    int tcp_listen_fd_ = -1;
    struct SessionHandle
    {
        std::unique_ptr<Session> session;
        std::thread thread;
        std::atomic<bool> done{false};
    };
    std::mutex sessions_mu_;
    std::vector<std::unique_ptr<SessionHandle>> sessions_;

    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> stopped_{false};
};

} // namespace pibe::serve

#endif // PIBE_SERVE_SERVER_H_
