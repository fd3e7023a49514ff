/**
 * @file
 * serve-mix: an open loop into bt::Service on the Pixel 7a model.
 *
 * Two workers serve a round-robin mix of Octree, FeatureExtract,
 * AlexNet-Dense and AlexNet-Sparse requests from four sessions, with
 * the schedule cache on, so after warm-up every request skips the
 * planner. The benchmark's main thread is the generator: it submits
 * request i at its due time t0 + i / rate and times the request from
 * that due time, so a generator stall counts against the requests it
 * delays. A ladder of fixed rates straddles capacity; the ladder gives
 * max_ok_rps and the per-rung tails.
 *
 * op_ms is each request's service time (worker pickup to completion)
 * at the reference rate. The latency from due time, which adds queueing,
 * wake-ups and generator lateness, is serve.latency_ms: on a shared
 * host its tail swung by 2x between runs, too far for a bound.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "apps/alexnet.hpp"
#include "apps/features.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bt;

/** Offered rates of the ladder, requests per second. Two workers serve
 *  ~5k/s on a contended 4-CPU host and ~8k/s on an idle one; the top
 *  rung overloads both. */
constexpr double kRates[kServeRungs] = {2000, 4000, 5500,
                                        7000, 8500, 12000};
/** The rung whose latencies are op_ms. */
constexpr int kReferenceRung = 0;
/** Tail limit a rung must meet to count toward max_ok_rps. */
constexpr double kLimitMs = 2.0;
/** Tail windows: short enough that most hold no worker stall. */
constexpr double kWindowSeconds = 0.05;
constexpr int kWorkers = 2;
/** Tasks per request: ~0.4 ms of service, well above thread wake-up
 *  jitter, and a request gap the generator sleeps through. */
constexpr int kTasksPerRequest = 96;

struct ServeSetup
{
    std::vector<core::Application> apps; ///< copies kept for probes
    std::unique_ptr<Service> svc;
    std::vector<std::string> mix; ///< seeded app order of the round robin
    std::map<std::string, double> buildMs;
    double seconds = 0.0;
};

service::ServiceConfig
serveConfig(std::uint64_t seed)
{
    service::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.maxLeaseGroups = 2;
    // Unbounded in practice: overload shows as backlog, never as drops.
    cfg.queueCapacity = 1 << 22;
    cfg.cacheEnabled = true;
    cfg.run.numTasks = kTasksPerRequest;
    cfg.run.noiseSalt = deriveSeed(seed, 1);
    return cfg;
}

std::unique_ptr<ServeSetup>
setUp(std::uint64_t seed, Result& r)
{
    const auto start = Clock::now();
    auto s = std::make_unique<ServeSetup>();
    const auto timed = [&s](const char* name, auto build) {
        const auto t = Clock::now();
        s->apps.push_back(build());
        s->buildMs[name] = secondsSince(t) * 1e3;
    };
    timed("octree", [] { return apps::octreeApp(); });
    timed("features", [] { return apps::featuresApp(); });
    timed("alexnet_dense", [] { return apps::alexnetDense(); });
    timed("alexnet_sparse", [] { return apps::alexnetSparse(); });

    s->svc = std::make_unique<Service>(platform::pixel7a(),
                                       serveConfig(seed));
    for (const auto& app : s->apps) {
        if (!s->svc->registerApp(app))
            r.fail("registerApp refused " + app.name());
        s->mix.push_back(app.name());
    }
    Rng rng(deriveSeed(seed, 4));
    for (std::size_t i = s->mix.size(); i > 1; --i)
        std::swap(s->mix[i - 1], s->mix[rng.nextBounded(i)]);

    // Warm-up: a burst deep enough to walk the load buckets from top
    // to bottom on both workers, which plans every cache key.
    s->svc->start();
    for (int i = 0; i < 100 * static_cast<int>(s->mix.size()); ++i) {
        service::Request req;
        req.session = i % 4;
        req.app = s->mix[static_cast<std::size_t>(i) % s->mix.size()];
        s->svc->submit(std::move(req));
    }
    s->svc->drain();
    s->seconds = secondsSince(start);
    return s;
}

/** What one request reported back, written by a worker thread. */
struct Record
{
    Clock::time_point done;
    double queueMs = 0.0;
    double serviceMs = 0.0;
    bool ok = false;
    bool hit = false;
    bool finished = false;
};

struct Rung
{
    double offered = 0.0;
    std::int64_t submitted = 0;
    std::int64_t dropped = 0;
    std::int64_t failed = 0;
    std::int64_t hits = 0;
    std::int64_t backlog = 0; ///< admitted, not completed, at rung end
    /** Median over windows of completions per second while offered. */
    double achievedRps = 0.0;
    std::vector<double> latencyMs, queueMs, serviceMs, lateMs;
    /** Per-window tails of latency (from due time), of service time,
     *  and of generator lateness. */
    std::vector<double> windowTails, windowServiceTails, windowLateTails;
    Tail windowTail; ///< the last window's percentile and n
    double submitSeconds = 0.0;

    double tailMs() const { return median(windowTails); }
    double serviceTailMs() const { return median(windowServiceTails); }
};

/**
 * Offer @p rate requests per second for @p seconds, then drain. The
 * tail is the median over kWindowSeconds windows of each window's
 * tail, so one stall moves one window, not the figure.
 */
Rung
runRung(ServeSetup& s, double rate, double seconds, Tracer& tracer,
        Result& r)
{
    Rung rung;
    const auto windows = std::max<std::int64_t>(
        1, std::llround(seconds / kWindowSeconds));
    rung.offered = rate;
    const auto n = static_cast<std::int64_t>(std::llround(rate * seconds));
    std::vector<Record> records(static_cast<std::size_t>(n));
    std::vector<Clock::time_point> due(static_cast<std::size_t>(n));
    std::atomic<std::int64_t> done{0};
    rung.lateMs.resize(static_cast<std::size_t>(n));

    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::int64_t i = 0; i < n; ++i)
        due[static_cast<std::size_t>(i)] = t0
            + std::chrono::nanoseconds(static_cast<std::int64_t>(
                static_cast<double>(i) * 1e9 / rate));

    {
        Tracer::Scope gen(tracer, "bench", "rung");
        for (std::int64_t i = 0; i < n; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            auto now = Clock::now();
            if (now < due[idx]) {
                std::this_thread::sleep_until(due[idx]);
                now = Clock::now();
            }
            rung.lateMs[idx] = secondsBetween(due[idx], now) * 1e3;

            service::Request req;
            req.session = static_cast<int>((i + i / 4) % 4);
            req.app = s.mix[idx % s.mix.size()];
            req.onDone = [&records, &done,
                          idx](const service::RequestResult& res) {
                Record& rec = records[idx];
                rec.done = Clock::now();
                rec.queueMs = res.queueSeconds * 1e3;
                rec.serviceMs = res.serviceSeconds * 1e3;
                rec.ok = res.ok;
                rec.hit = res.cacheHit;
                rec.finished = true;
                done.fetch_add(1, std::memory_order_release);
            };
            bool admitted = false;
            if (tracer.enabled()) {
                const auto t = Clock::now();
                {
                    Tracer::Scope span(tracer, "service", "submit");
                    admitted = s.svc->submit(std::move(req));
                }
                rung.submitSeconds += secondsSince(t);
            } else {
                admitted = s.svc->submit(std::move(req));
            }
            if (admitted)
                ++rung.submitted;
            else
                ++rung.dropped;
        }
    }
    const auto window_end = Clock::now();
    rung.backlog = rung.submitted - done.load(std::memory_order_acquire);
    {
        Tracer::Scope span(tracer, "service", "drain");
        s.svc->drain();
    }

    // drain() returns after every worker finished its onDone calls.
    std::vector<double> per_window(static_cast<std::size_t>(windows), 0);
    const double window_s = secondsBetween(t0, window_end)
        / static_cast<double>(windows);
    for (std::int64_t i = 0; i < n; ++i) {
        const Record& rec = records[static_cast<std::size_t>(i)];
        if (!rec.finished)
            continue;
        const double ms
            = secondsBetween(due[static_cast<std::size_t>(i)], rec.done)
            * 1e3;
        rung.latencyMs.push_back(ms);
        rung.queueMs.push_back(rec.queueMs);
        rung.serviceMs.push_back(rec.serviceMs);
        rung.hits += rec.hit ? 1 : 0;
        if (!rec.ok)
            ++rung.failed;
        const auto w = static_cast<std::size_t>(
            secondsBetween(t0, rec.done) / window_s);
        if (rec.done <= window_end && w < per_window.size())
            per_window[w] += 1.0 / window_s;
    }
    if (static_cast<std::int64_t>(rung.latencyMs.size()) != rung.submitted)
        r.fail("requests still in flight after drain");
    if (rung.failed > 0)
        r.fail(std::to_string(rung.failed) + " requests returned ok=false");
    rung.achievedRps = median(per_window);

    for (std::int64_t w = 0; w < windows; ++w) {
        const auto lo = static_cast<std::ptrdiff_t>(n * w / windows);
        const auto hi = static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
        if (hi <= lo
            || rung.latencyMs.size() != static_cast<std::size_t>(n))
            continue;
        rung.windowTail = tailOf({rung.latencyMs.begin() + lo,
                                  rung.latencyMs.begin() + hi});
        rung.windowTails.push_back(rung.windowTail.value);
        rung.windowServiceTails.push_back(
            tailOf({rung.serviceMs.begin() + lo, rung.serviceMs.begin() + hi})
                .value);
        rung.windowLateTails.push_back(
            tailOf({rung.lateMs.begin() + lo, rung.lateMs.begin() + hi})
                .value);
    }
    r.attempted += n;
    r.failed += rung.dropped + rung.failed;
    return rung;
}

bool
rungOk(const Rung& rung)
{
    return rung.dropped == 0 && rung.failed == 0
        && rung.tailMs() <= kLimitMs
        && static_cast<double>(rung.backlog)
            <= rung.offered * kLimitMs / 1e3 + kWorkers;
}

/**
 * The highest ladder rate that meets the limit, refined by log-linear
 * interpolation of the tail towards the next (failing) rung.
 */
double
maxOkRps(const std::vector<Rung>& ladder)
{
    int best = -1;
    for (int k = 0; k < static_cast<int>(ladder.size()); ++k)
        if (rungOk(ladder[static_cast<std::size_t>(k)]))
            best = k;
    if (best < 0) // below the ladder: scale the first rung by its tail
        return ladder.front().offered
            * std::min(1.0, kLimitMs / ladder.front().tailMs());
    if (best + 1 == static_cast<int>(ladder.size()))
        return ladder.back().offered;
    const Rung& lo = ladder[static_cast<std::size_t>(best)];
    const Rung& hi = ladder[static_cast<std::size_t>(best) + 1];
    if (hi.tailMs() <= kLimitMs || lo.tailMs() <= 0.0)
        return lo.offered;
    const double frac = std::clamp(std::log(kLimitMs / lo.tailMs())
                                       / std::log(hi.tailMs() / lo.tailMs()),
                                   0.0, 1.0);
    return lo.offered + frac * (hi.offered - lo.offered);
}

/** Virtual per-task latency and speedup of each app served alone. */
void
probeVirtual(ServeSetup& s, std::uint64_t seed, double& virt_ms,
             double& speedup, Result& r)
{
    FrameworkConfig fcfg;
    fcfg.run = serveConfig(seed).run;
    const Framework fw(platform::pixel7a(), fcfg);
    const auto& soc = fw.model().soc();
    std::vector<double> ms, speedups;
    for (const auto& app : s.apps) {
        service::RequestResult result;
        service::Request req;
        req.app = app.name();
        req.onDone = [&result](const service::RequestResult& res) {
            result = res;
        };
        s.svc->submit(std::move(req));
        s.svc->drain();
        const double interval = result.run.taskIntervalSeconds;
        if (!result.ok || interval <= 0.0) {
            r.fail("probe request for " + app.name() + " failed");
            continue;
        }
        // Served alone, the request runs at load bucket 0 on the whole
        // SoC: the cached plan must be the planner's plan for that key.
        if (!(result.schedule
              == s.svc->freshPlan(app.name(), 0, 0, 1).schedule))
            r.fail("cached plan for " + app.name()
                   + " differs from a fresh plan");
        const double base
            = std::min(fw.measureHomogeneous(app, soc.bigCpuIndex()),
                       fw.measureHomogeneous(app, soc.gpuIndex()));
        ms.push_back(interval * 1e3);
        speedups.push_back(base / interval);
    }
    virt_ms = geomean(ms);
    speedup = geomean(speedups);
}

} // namespace

Result
runServeMix(const Options& opt)
{
    Result r;
    Calibration cal;
    std::unique_ptr<ServeSetup> setup;
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> build_ms;
    for (int k = 0; k < kSetups; ++k) {
        setup.reset(); // one service alive at a time
        cal.sample();
        setup = setUp(opt.seed, r);
        setup_s.push_back(setup->seconds);
        for (const auto& [app, ms] : setup->buildMs)
            build_ms[app].push_back(ms);
    }
    ServeSetup& s = *setup;
    const service::ServiceReport before = s.svc->report();
    double virt_ms = 0.0, virt_speedup = 0.0;
    probeVirtual(s, opt.seed, virt_ms, virt_speedup, r);

    // Untraced: the reference rung (40%) then the rest of the ladder.
    // Traced: an untraced reference rung for the trace comparison, the
    // same rung traced, then the traced ladder.
    Tracer off(false), on(true);
    const double ladder_share = opt.trace ? 0.5 : 0.6;
    const double rung_s = opt.seconds * ladder_share / (kServeRungs - 1);
    std::vector<Rung> ladder;
    Rung untraced_ref;
    // The host probe runs between rungs: inside one it would stall the
    // generator.
    if (opt.trace) {
        cal.sample();
        untraced_ref
            = runRung(s, kRates[kReferenceRung], opt.seconds * 0.25, off, r);
    }
    for (int k = 0; k < kServeRungs; ++k) {
        const bool ref = k == kReferenceRung;
        const double secs = ref ? opt.seconds * (opt.trace ? 0.25 : 0.4)
                                : rung_s;
        cal.sample();
        ladder.push_back(
            runRung(s, kRates[k], secs, opt.trace ? on : off, r));
    }
    cal.sample();
    const Rung& ref = ladder[kReferenceRung];
    const service::ServiceReport report = s.svc->report();
    s.svc->stop();
    // Every attempt (rungs plus one probe per app) was admitted or
    // dropped, and every admitted request completed.
    std::int64_t attempts = static_cast<std::int64_t>(s.apps.size());
    attempts += untraced_ref.submitted + untraced_ref.dropped;
    for (const Rung& rung : ladder)
        attempts += rung.submitted + rung.dropped;
    if (report.submitted + report.dropped - before.submitted
            - before.dropped
        != attempts)
        r.fail("service counted a different number of requests");
    if (report.completed != report.submitted)
        r.fail("service report: submitted != completed after drain");
    if (report.failed > 0 || report.dropped > 0)
        r.fail("service reported failed or dropped requests");

    const Rung& host_ref = opt.trace ? untraced_ref : ref;
    HostFigures host;
    host.setupS = median(setup_s);
    host.opsPerS = host_ref.achievedRps;
    host.opsFollowHost = false; // bound by the offered rate
    host.p50Ms = median(host_ref.serviceMs);
    host.tail = host_ref.windowTail;
    host.tail.value = host_ref.serviceTailMs();

    auto& m = r.metrics;
    if (!opt.trace) {
        setEndToEnd(r, host, cal, virt_ms, virt_speedup);
        r.notes.push_back(
            "op_ms is service time; from due time: p50 "
            + std::to_string(median(ref.latencyMs)) + " ms, tail "
            + std::to_string(ref.tailMs()) + " ms; max_ok_rps "
            + std::to_string(maxOkRps(ladder)) + "; tails are medians of "
            + std::to_string(ref.windowTails.size()) + " window tails");
        return r;
    }

    for (const auto& [app, ms] : build_ms)
        m.set("apps." + app + ".build_ms", median(ms), "ms");
    double lint_s = 0.0;
    for (const auto& app : s.apps) {
        const auto t = Clock::now();
        {
            Tracer::Scope span(on, "lint", "tenant");
            if (s.svc->lintTenant(app).errors() > 0)
                r.fail("tenant lint of " + app.name() + " found errors");
        }
        lint_s += secondsSince(t);
    }
    m.set("lint.preflight_ms",
          lint_s * 1e3 / static_cast<double>(s.apps.size()), "ms");

    std::int64_t requests = 0, hits = 0, dropped = 0;
    for (const Rung& rung : ladder) {
        requests += static_cast<std::int64_t>(rung.latencyMs.size());
        hits += rung.hits;
        dropped += rung.dropped;
    }
    m.set("service.submit_us",
          ref.submitSeconds * 1e6 / static_cast<double>(ref.submitted),
          "us");
    m.set("service.queue_ms.p50", median(ref.queueMs), "ms");
    m.set("service.queue_ms.tail", tailOf(ref.queueMs).value, "ms");
    m.set("service.service_ms.p50", median(ref.serviceMs), "ms");
    m.set("service.service_ms.tail", ref.serviceTailMs(), "ms");
    m.set("serve.latency_ms.p50", median(ref.latencyMs), "ms");
    m.set("serve.latency_ms.tail", ref.tailMs(), "ms");
    m.set("service.cache_hit_ratio",
          static_cast<double>(hits) / static_cast<double>(requests),
          "ratio");
    m.set("service.plans", static_cast<double>(report.plans), "count");
    m.set("service.plan_ms",
          report.plans > 0
              ? report.planSeconds * 1e3 / static_cast<double>(report.plans)
              : 0.0,
          "ms");
    m.set("service.batch_size",
          static_cast<double>(report.completed - before.completed)
              / static_cast<double>(report.batches - before.batches),
          "count");
    m.set("service.dropped", static_cast<double>(dropped), "count");
    m.set("service.backlog", static_cast<double>(ref.backlog), "count");
    m.set("service.gen_late_ms", median(ref.windowLateTails), "ms");
    m.set("service.saturated_rps", ladder.back().achievedRps, "1/s");
    m.set("max_ok_rps", maxOkRps(ladder), "1/s");
    for (int k = 0; k < kServeRungs; ++k) {
        const Rung& rung = ladder[static_cast<std::size_t>(k)];
        const std::string name = "serve.r" + std::to_string(k + 1);
        m.set(name + ".offered_rps", rung.offered, "1/s");
        m.set(name + ".tail_ms", rung.tailMs(), "ms");
        m.set(name + ".backlog", static_cast<double>(rung.backlog),
              "count");
    }

    setRawFigures(r, host, cal);
    setTraceDelta(r, median(untraced_ref.serviceMs), median(ref.serviceMs));
    setSelfTimes(r, on, requests);
    if (!opt.spansPath.empty())
        on.writeChromeJson(opt.spansPath);
    return r;
}

} // namespace perfbench
