/**
 * @file
 * Workload `serve_mixed`: an in-process serve::Server on a unix socket
 * under an open-loop request mix.
 *
 * The daemon runs a 64-driver kernel with a 30-iteration training
 * profile and a fresh cache directory. The seeded mix follows
 * `pibe loadgen` (70% measure, 20% optimize, 10% check over three
 * image variants). A fixed share of requests carries a fresh
 * icp_budget and misses every cache. Requests are due at a fixed
 * offered rate and are sent from at most workerCap() connections;
 * latency is timed from each request's due time.
 */
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/layout.h"
#include "ir/parser.h"
#include "pibe/engine.h"
#include "profile/serialize.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/rng.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {

using namespace pibe;
using serve::Json;

namespace {

constexpr uint32_t kDrivers = 64;
constexpr uint32_t kProfileIters = 30;
constexpr uint32_t kVariants = 3;
/**
 * The recorded `pibe loadgen` run in BENCH_tables.json (`serve`): its
 * cold pass answered 105.6 requests/s closed-loop (8 clients, one
 * core), and 16 of its 401 requests missed the cache.
 */
constexpr double kLoadgenColdRps = 105.6;
constexpr double kLoadgenMissShare = 16.0 / 401.0;
/**
 * Offered load (requests per second): a quarter of the recorded
 * throughput, so the window stays below saturation even when the
 * machine gives the daemon a single slow core. The traced run measures
 * the resulting utilisation (serve.utilisation).
 */
constexpr double kRate = 0.25 * kLoadgenColdRps;
/** Every kFreshEvery-th request measures `null` on pibe-all with a
 *  fresh icp_budget, so it misses every cache and pays build, decode
 *  and simulation behind the admission gate: the recorded miss share,
 *  1 in 25. */
constexpr size_t kFreshEvery =
    static_cast<size_t>(1.0 / kLoadgenMissShare + 0.5);
/** Share of --seconds the open-loop window lasts; the rest pays for
 *  the kSetups cold starts, the warm-up and the verify sample. */
constexpr double kWindowShare = 0.6;
/**
 * The daemon's pool workers: two, so that a cache hit runs beside a
 * fresh miss (~300 ms) instead of queueing behind it. With one worker
 * the window's utilisation was about 0.4 and its median latency moved
 * with every small change of the machine's speed; with workerCap()
 * workers its misses timed how many cores the machine lent.
 */
constexpr unsigned kDaemonWorkers = 2;
/** Measure results recomputed in-process per run. */
constexpr size_t kVerifySample = 4;

kernel::KernelConfig
kernelConfig(const Options& opt)
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = opt.small ? 8 : kDrivers;
    return cfg;
}

Json
variantParams(uint32_t variant)
{
    Json p = Json::object();
    switch (variant) {
    case 0: // pibe-all
        p.set("defense", "all");
        p.set("inline_budget", 0.999999);
        break;
    case 1:
        p.set("defense", "retpolines");
        p.set("icp_budget", 0.99);
        break;
    default:
        p.set("defense", "none");
        break;
    }
    return p;
}

struct Request
{
    std::string op;
    Json params;
    std::string signature;
    double due_s = 0;
    bool fresh = false; ///< Carries a fresh icp_budget: misses every cache.
};

/**
 * The seeded request sequence, due at kRate. Every block of ten
 * requests holds exactly seven measures, two optimizes and one check
 * in seeded order, and each op cycles through the image variants from a
 * seeded start, so the mix does not vary with the seed; the seed picks
 * the order, the variants' phase and the six LMBench tests measured.
 * Fresh-budget requests get icp_budget `fresh_base` + 1e-6 * i, so two
 * schedules with different bases never share a fresh signature.
 */
std::vector<Request>
makeSchedule(const Options& opt, size_t count, double fresh_base = 0.9)
{
    std::vector<std::string> names;
    for (const auto& wl : workload::makeLmbenchSuite())
        names.push_back(wl->name());
    Rng rng(opt.seed);
    std::vector<std::string> pool;
    while (pool.size() < 6) {
        const std::string& n = names[rng.below(names.size())];
        if (std::find(pool.begin(), pool.end(), n) == pool.end())
            pool.push_back(n);
    }
    const size_t fresh_offset = rng.below(kFreshEvery);
    std::map<std::string, uint64_t> next_variant;
    for (const char* op : {"measure", "optimize", "check"})
        next_variant[op] = rng.below(kVariants);
    std::vector<std::string> block;
    std::vector<Request> schedule(count);
    for (size_t i = 0; i < count; ++i) {
        if (i % 10 == 0) {
            block = {"measure", "measure", "measure",  "measure", "measure",
                     "measure", "measure", "optimize", "optimize", "check"};
            for (size_t j = block.size() - 1; j > 0; --j)
                std::swap(block[j], block[rng.below(j + 1)]);
        }
        Request& req = schedule[i];
        req.op = block[i % 10];
        req.params = variantParams(
            static_cast<uint32_t>(next_variant[req.op]++ % kVariants));
        if (i % kFreshEvery == fresh_offset) {
            req.fresh = true;
            req.op = "measure";
            req.params = variantParams(0);
            req.params.set("icp_budget",
                           fresh_base + 1e-6 * static_cast<double>(i));
            req.params.set("workload", "null");
        } else if (req.op == "measure") {
            req.params.set("workload", pool[rng.below(pool.size())]);
        }
        req.due_s = static_cast<double>(i) / kRate;
        req.signature = req.op + " " + req.params.dump();
    }
    return schedule;
}

/** The answer bits that must repeat for a repeated signature. */
std::string
answerBits(const std::string& op, const Json& r)
{
    if (op == "measure")
        return r["latency_bits"].asString() + ":" +
               r["ops_bits"].asString();
    if (op == "optimize")
        return r["image"].asString() + ":" +
               std::to_string(r["bytes"].asInt());
    return std::to_string(r["errors"].asInt()) + ":" +
           std::to_string(r["warnings"].asInt()) + ":" +
           std::to_string(r["passed"].asBool());
}

/** The in-process reference pipeline for the verify sample. */
struct Reference
{
    std::string kernel_text;
    std::unique_ptr<ir::Module> kernel;
    kernel::KernelInfo info;
    std::string profile_text;
    profile::EdgeProfile profile;
};

Reference
makeReference(Tracer& t, const Options& opt)
{
    Reference ref;
    {
        auto sp = t.span("kernel.build");
        ref.kernel_text = core::kernelTextCached(kernelConfig(opt), nullptr);
    }
    {
        auto sp = t.span("ir.parse");
        ref.kernel = std::make_unique<ir::Module>(
            ir::parseModule(ref.kernel_text));
    }
    ref.info = kernel::kernelInfoFromModule(*ref.kernel);
    {
        auto sp = t.span("profile.collect");
        ref.profile_text =
            core::profileTextCached(ref.kernel_text, *ref.kernel,
                                    ref.info, kProfileIters, nullptr);
    }
    {
        auto sp = t.span("profile.lift");
        ref.profile = profile::liftProfile(*ref.kernel, ref.profile_text);
    }
    return ref;
}

/** A daemon with its own socket and fresh cache directory. */
struct Daemon
{
    std::string dir;
    std::unique_ptr<serve::Server> server;

    Daemon(const Options& opt, int index, bool listen)
    {
        const std::string tag = std::to_string(::getpid()) + "-" +
                                std::to_string(index);
        dir = opt.out_dir + "/serve-" + tag;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        serve::ServeOptions so;
        so.socket_path = listen ? dir + "/s.sock" : "";
        so.jobs = kDaemonWorkers;
        so.cache_dir = dir + "/cache";
        so.kernel = kernelConfig(opt);
        so.profile_base_iters = kProfileIters;
        server = std::make_unique<serve::Server>(so);
    }
    ~Daemon()
    {
        server.reset(); // stops listeners, joins sessions
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;
};

/** What a window of requests observed. */
struct Window
{
    std::vector<double> latency_ms;  ///< From due time, all requests.
    std::vector<double> hit_ms;      ///< Repeated signatures only.
    std::vector<double> rtt_ms;      ///< Send to reply.
    std::vector<double> lag_ms;      ///< Send time minus due time.
    double wall_s = 0;
    std::map<std::string, std::string> bits;
    uint64_t ok = 0, errors = 0, mismatches = 0;
};

/**
 * Send `schedule` from workerCap() connections. Paced, each request is
 * sent at its due time (open loop); unpaced, each connection sends its
 * next request as soon as the previous reply arrives (closed loop).
 * `bits` holds the answers of signatures replied to before.
 */
Window
runWindow(const std::string& socket, const std::vector<Request>& schedule,
          bool paced, std::map<std::string, std::string> bits = {})
{
    Window w;
    w.bits = std::move(bits);
    std::mutex mu;
    const unsigned conns = workerCap();
    const Clock::time_point start = Clock::now();
    auto worker = [&](unsigned c) {
        serve::Client client;
        const bool up = client.connectUnix(socket);
        for (size_t i = c; i < schedule.size(); i += conns) {
            const Request& req = schedule[i];
            const Clock::time_point due =
                paced ? start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(req.due_s))
                      : Clock::now();
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            bool repeat;
            {
                std::lock_guard<std::mutex> lock(mu);
                repeat = w.bits.count(req.signature) != 0;
            }
            std::optional<Json> res;
            if (up)
                res = client.callOk(req.op, req.params);
            const Clock::time_point done = Clock::now();
            std::lock_guard<std::mutex> lock(mu);
            const double from_due =
                std::chrono::duration<double, std::milli>(done - due)
                    .count();
            w.latency_ms.push_back(from_due);
            if (repeat)
                w.hit_ms.push_back(from_due);
            w.rtt_ms.push_back(
                std::chrono::duration<double, std::milli>(done - sent)
                    .count());
            w.lag_ms.push_back(
                std::chrono::duration<double, std::milli>(sent - due)
                    .count());
            if (!res) {
                ++w.errors;
                continue;
            }
            ++w.ok;
            auto [it, fresh] = w.bits.emplace(
                req.signature, answerBits(req.op, *res));
            if (!fresh && it->second != answerBits(req.op, *res))
                ++w.mismatches;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c)
        threads.emplace_back(worker, c);
    for (auto& t : threads)
        t.join();
    w.wall_s = secondsSince(start);
    return w;
}

/**
 * Warm-up: every signature of `schedule` except the fresh misses, once,
 * closed-loop. The window that follows then misses the cache exactly
 * on its fresh requests.
 */
Window
warmUp(const std::string& socket, const std::vector<Request>& schedule)
{
    std::vector<Request> distinct;
    std::set<std::string> seen;
    for (const Request& req : schedule)
        if (!req.fresh && seen.insert(req.signature).second)
            distinct.push_back(req);
    return runWindow(socket, distinct, false);
}

/**
 * Recompute a seeded sample of the answered measure signatures
 * in-process through the staged engine entry points and compare bits.
 */
void
verifySample(const Options& opt, const Reference& ref,
             const std::vector<Request>& schedule, const Window& w,
             Result& r)
{
    std::vector<const Request*> measures;
    std::set<std::string> seen;
    for (const Request& req : schedule)
        if (req.op == "measure" && w.bits.count(req.signature) &&
            seen.insert(req.signature).second)
            measures.push_back(&req);
    Rng rng(opt.seed ^ 0x5eedull);
    runtime::ArtifactCache cache;
    for (size_t k = 0; k < kVerifySample && !measures.empty(); ++k) {
        const size_t pick = rng.below(measures.size());
        const Request& req = *measures[pick];
        measures.erase(measures.begin() + static_cast<long>(pick));
        core::OptConfig oc;
        std::string error;
        const bool parsed = serve::optConfigFromJson(req.params, &oc,
                                                     &error);
        const auto defense =
            harden::defenseByName(req.params["defense"].asString());
        if (!parsed || !defense) {
            r.gate(false, "verify: bad params " + req.signature);
            continue;
        }
        const std::string text = core::imageTextCached(
            ref.kernel_text, *ref.kernel, ref.profile_text, ref.profile,
            oc, *defense, &cache);
        const ir::Module image = ir::parseModule(text);
        const core::Measurement m = core::measureWorkloadCached(
            text, std::make_shared<const uarch::DecodedModule>(image),
            kernel::kernelInfoFromModule(image),
            req.params["workload"].asString(), core::MeasureConfig{},
            nullptr);
        const std::string local =
            std::to_string(std::bit_cast<uint64_t>(m.latency_us)) + ":" +
            std::to_string(std::bit_cast<uint64_t>(m.ops_per_sec));
        r.gate(local == w.bits.at(req.signature),
               "verify: daemon answer differs for " + req.signature);
    }
}

/** Prime every image variant (cold builds); returns image_bytes. */
double
prime(serve::Client& client, Result& r)
{
    double bytes = 0;
    for (uint32_t v = 0; v < kVariants; ++v) {
        Json params = variantParams(v);
        if (v == 0)
            params.set("want_text", true);
        std::string error;
        const std::optional<Json> res =
            client.callOk("optimize", params, &error);
        r.gate(res.has_value(), "prime optimize failed: " + error);
        if (res && v == 0)
            bytes = static_cast<double>(analysis::imageSizeOf(
                ir::parseModule((*res)["text"].asString())));
    }
    return bytes;
}

size_t
requestCount(const Options& opt)
{
    return static_cast<size_t>(kRate * kWindowShare * opt.seconds);
}

/** Set-up: reference inputs, schedule and a listening daemon. */
struct Started
{
    Reference ref;
    std::vector<Request> schedule;
    std::unique_ptr<Daemon> daemon;
    serve::Client client;
};

Started
startUp(const Options& opt, int index, Result& r)
{
    Tracer off(false);
    Started s;
    s.ref = makeReference(off, opt);
    s.schedule = makeSchedule(opt, requestCount(opt));
    s.daemon = std::make_unique<Daemon>(opt, index, true);
    r.gate(s.daemon->server->start(), "daemon failed to start");
    r.gate(s.client.connectUnix(s.daemon->dir + "/s.sock") &&
               s.client.callOk("ping", Json::object()).has_value(),
           "daemon does not answer ping");
    return s;
}

/**
 * The traced run's pass: the set-up's reference pipeline, then a fresh
 * daemon (no listener) answers a prefix of the schedule through
 * Server::handle, serially, under the root span `serve_mixed`.
 */
void
replayPass(Tracer& t, const Options& opt,
           const std::vector<Request>& schedule, int index,
           std::map<std::string, std::vector<double>>* handle_ms)
{
    Daemon d(opt, index, false);
    auto root = t.span("serve_mixed");
    // The set-up's reference pipeline, one layer per span.
    makeReference(t, opt);
    const size_t n = std::min<size_t>(schedule.size(), 120);
    for (size_t i = 0; i < n; ++i) {
        const Request& req = schedule[i];
        Json envelope = Json::object();
        envelope.set("id", static_cast<int64_t>(i + 1));
        envelope.set("op", req.op);
        envelope.set("params", req.params);
        const Clock::time_point t0 = Clock::now();
        {
            auto sp = t.span("serve.handle");
            d.server->handle(envelope);
        }
        (*handle_ms)[req.op].push_back(msSince(t0));
    }
}

void
runTraced(const Options& opt, Result& r)
{
    // The untraced daemon window: latency, lag and daemon counters;
    // then a closed-loop leg of the same mix on the same daemon
    // measures the capacity for it and so the window's utilisation.
    {
        Started s = startUp(opt, 0, r);
        prime(s.client, r);
        const std::string socket = s.daemon->dir + "/s.sock";
        const Window warm = warmUp(socket, s.schedule);
        const serve::MetricsSnapshot before =
            s.daemon->server->metricsSnapshot();
        const Window w = runWindow(socket, s.schedule, true, warm.bits);
        r.gate(warm.errors == 0 && w.errors == 0 && w.mismatches == 0,
               "window requests failed or diverged");
        const serve::MetricsSnapshot snap =
            s.daemon->server->metricsSnapshot();
        const Window cap =
            runWindow(socket, makeSchedule(opt, requestCount(opt) / 2, 0.95),
                      false, w.bits);
        r.gate(cap.errors == 0 && cap.mismatches == 0,
               "capacity requests failed or diverged");
        const double capacity = static_cast<double>(cap.ok) / cap.wall_s;
        r.set("serve.capacity_rps", capacity);
        r.set("serve.utilisation", kRate / capacity);

        r.set("serve_p50_ms", percentile(w.latency_ms, 0.50));
        r.set("serve_p99_ms", percentile(w.latency_ms, 0.99));
        r.set("serve_hit_p99_ms", percentile(w.hit_ms, 0.99));
        r.set("serve_rps", static_cast<double>(w.ok) / w.wall_s);
        double lag = 0, rtt = 0;
        for (double l : w.lag_ms)
            lag += l;
        for (double ms : w.rtt_ms)
            rtt += ms;
        r.set("serve.gen_lag_ms",
              lag / static_cast<double>(w.lag_ms.size()));
        double handle = 0;
        uint64_t requests = 0;
        for (const char* op : {"measure", "optimize", "check"}) {
            auto it = snap.by_op.find(op);
            auto was = before.by_op.find(op);
            if (it != snap.by_op.end()) {
                handle += it->second.ms_total;
                requests += it->second.requests;
            }
            if (was != before.by_op.end()) {
                handle -= was->second.ms_total;
                requests -= was->second.requests;
            }
        }
        const double handled =
            static_cast<double>(std::max<uint64_t>(1, requests));
        r.set("serve.rtt_minus_handle_ms",
              rtt / static_cast<double>(w.rtt_ms.size()) - handle / handled);
        r.set("serve.admission_wait_ms",
              (snap.admission_wait_ms_total -
               before.admission_wait_ms_total) /
                  handled);
        r.set("serve.coalesced",
              static_cast<double>(snap.coalesced - before.coalesced));
        const runtime::CacheStats& c0 = before.cache;
        const runtime::CacheStats& c1 = snap.cache;
        const double lookups = static_cast<double>(
            std::max<uint64_t>(1, c1.lookups() - c0.lookups()));
        r.set("runtime.cache_hit_rate",
              static_cast<double>(c1.hits() - c0.hits()) / lookups);
        r.set("runtime.cache_get_ms",
              (c1.get_ms_total - c0.get_ms_total) / lookups);
        const uint64_t puts = c1.puts - c0.puts;
        r.set("runtime.cache_put_ms",
              (c1.put_ms_total - c0.put_ms_total) /
                  static_cast<double>(std::max<uint64_t>(1, puts)));
    }

    const std::vector<Request> schedule =
        makeSchedule(opt, requestCount(opt));
    Tracer off(false);
    std::map<std::string, std::vector<double>> scratch, handle_ms;
    Tracer t(true);
    const double untraced_ms = untracedAround(
        [&](int i) { replayPass(off, opt, schedule, i, &scratch); },
        [&] { replayPass(t, opt, schedule, 2, &handle_ms); });
    reportAccounting(t, "serve_mixed", r);
    r.set("trace.overhead_ms", t.totalMs("serve_mixed") - untraced_ms);
    for (const auto& [op, ms] : handle_ms) {
        double sum = 0;
        for (double m : ms)
            sum += m;
        r.set("serve.handle_ms." + op,
              sum / static_cast<double>(ms.size()));
    }
    reportSpans(t, r);
    t.writeChromeTrace(opt.out_dir + "/serve_mixed.trace.json");
    t.writeSelfTable(opt.out_dir + "/serve_mixed.self.tsv");
}

} // namespace

void
runServeMixed(const Options& opt, Result& r)
{
    if (opt.trace) {
        runTraced(opt, r);
        return;
    }

    // kSetups cold starts: set-up (reference inputs, schedule, daemon
    // start) and the build part (one cold optimize per image variant)
    // each report the median. The last start before the window serves
    // it.
    std::vector<double> setups, builds, build_cpus;
    auto coldStart = [&](int i) {
        const Clock::time_point t0 = Clock::now();
        Started s = startUp(opt, i, r);
        setups.push_back(secondsSince(t0));
        const double cpu0 = processCpuSeconds();
        const Clock::time_point t1 = Clock::now();
        r.set("image_bytes", prime(s.client, r));
        builds.push_back(secondsSince(t1));
        build_cpus.push_back(processCpuSeconds() - cpu0);
        std::printf("# cold start %d: setup_s=%.4f build_s=%.4f "
                    "build_cpu_s=%.4f\n",
                    i, setups.back(), builds.back(), build_cpus.back());
        return s;
    };
    for (int i = 0; i + 1 < kSetups / 2; ++i)
        coldStart(i);
    Started s = coldStart(kSetups / 2 - 1);

    // Measure part: the open-loop window on the warmed daemon. Its wall
    // time is set by the offered rate, so the part reports the work
    // done in it instead: the process CPU time of the window.
    const std::string socket = s.daemon->dir + "/s.sock";
    const Window warm = warmUp(socket, s.schedule);
    const double cpu0 = processCpuSeconds();
    const Window w = runWindow(socket, s.schedule, true, warm.bits);
    const double work_s = processCpuSeconds() - cpu0;
    r.attempted += warm.ok + warm.errors + w.ok + w.errors;
    r.failed += warm.errors + w.errors + w.mismatches;
    if (w.errors || w.mismatches)
        r.errors.push_back(std::to_string(w.errors) + " requests failed, " +
                           std::to_string(w.mismatches) +
                           " answers diverged");
    verifySample(opt, s.ref, s.schedule, w, r);
    s = Started{};

    for (int i = kSetups / 2; i < kSetups; ++i)
        coldStart(i);
    r.set("setup_s", median(setups));
    const double build_s = median(builds);
    const double cpu_s = median(build_cpus) + work_s;

    r.set("build_s", build_s);
    r.set("measure_s", work_s);
    r.set("total_s", build_s + work_s);
    r.set("cpu_s", cpu_s);
    r.set("latency_p50_ms", percentile(w.latency_ms, 0.50));
    r.set("latency_p99_ms", percentile(w.latency_ms, 0.99));
    r.set("ops_per_s", static_cast<double>(w.ok) / work_s);
    r.set("serve_p50_ms", percentile(w.latency_ms, 0.50));
    r.set("serve_p99_ms", percentile(w.latency_ms, 0.99));
    r.set("serve_hit_p99_ms", percentile(w.hit_ms, 0.99));
    r.set("serve_rps", static_cast<double>(w.ok) / w.wall_s);
}

} // namespace perfbench
