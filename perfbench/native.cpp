/**
 * @file
 * native-host: a closed loop of NativeExecutor runs on this machine.
 *
 * Octree at paper scale (2^18 points per task, a working set above a
 * 2 MiB L2) and AlexNet-Dense at batch 1 each run a CPU-only schedule
 * and a CPU|SIMT split, with their validators attached. An op is one
 * streamed task; op_ms samples are the gaps between a run's task
 * completions after warm-up, i.e. the run's steady-state interval task
 * by task. This is the only workload that executes kernels, SIMD, the
 * SIMT emulation, the SPSC queues and the thread pool; the planner and
 * the service are absent.
 */

#include <algorithm>
#include <memory>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bt;

constexpr int kTasksPerRun = 8;
/** Closed-loop latency limit for max_ok_rps (goodput), ms. */
constexpr double kLimitMs = 1000.0;
/** Kernel probe rounds; per-stage times are their median. */
constexpr int kProbeRounds = 3;

struct Combo
{
    int app = 0;
    core::Schedule schedule;
};

struct NativeSetup
{
    platform::SocDescription soc;
    std::vector<core::Application> apps;
    std::vector<std::string> keys; ///< metric names of the apps
    std::vector<Combo> combos;
    std::map<std::string, double> buildMs;
    double seconds = 0.0;
};

core::NativeExecConfig
runConfig(int tasks)
{
    core::NativeExecConfig cfg;
    cfg.numTasks = tasks;
    cfg.validate = true;
    return cfg;
}

/** CPU-only, and the first half of the stages on the CPU with the rest
 *  on the SIMT emulation. */
std::vector<core::Schedule>
schedulesFor(int stages)
{
    std::vector<int> split(static_cast<std::size_t>(stages), 0);
    for (int i = stages / 2; i < stages; ++i)
        split[static_cast<std::size_t>(i)] = 1;
    return {core::Schedule::homogeneous(stages, 0),
            core::Schedule::fromAssignment(split)};
}

std::unique_ptr<NativeSetup>
setUp(std::uint64_t seed, Result& r)
{
    const auto start = Clock::now();
    auto s = std::make_unique<NativeSetup>();
    s->soc = platform::nativeHost();
    s->soc.seed = deriveSeed(seed, 3); // drives every task's input data
    const auto timed = [&s](const char* name, auto build) {
        const auto t = Clock::now();
        s->apps.push_back(build());
        s->keys.push_back(name);
        s->buildMs[name] = secondsSince(t) * 1e3;
    };
    timed("alexnet_dense", [] {
        return apps::alexnetDense({.batch = 1, .withValidator = true});
    });
    timed("octree",
          [] { return apps::octreeApp({.withValidator = true}); });

    for (int a = 0; a < static_cast<int>(s->apps.size()); ++a) {
        const auto& app = s->apps[static_cast<std::size_t>(a)];
        const auto& names
            = nativeStageNames(s->keys[static_cast<std::size_t>(a)]);
        for (int st = 0; st < app.numStages(); ++st)
            if (static_cast<std::size_t>(st) >= names.size()
                || app.stage(st).name()
                    != names[static_cast<std::size_t>(st)])
                r.fail(app.name() + " stage " + std::to_string(st)
                       + " is not the catalogued kernels.* stage");
        if (app.numStages() != static_cast<int>(names.size()))
            r.fail(app.name() + " has an unexpected stage count");
        for (const auto& schedule : schedulesFor(app.numStages()))
            s->combos.push_back({a, schedule});
    }

    // Warm-up: one short run per combo (threads, pools, first touch).
    const core::NativeExecutor warm(s->soc, runConfig(4));
    for (const Combo& c : s->combos) {
        const auto res = warm.execute(
            s->apps[static_cast<std::size_t>(c.app)], c.schedule);
        if (!res.valid())
            r.fail("warm-up run invalid: " + res.validationErrors.front());
    }
    s->seconds = secondsSince(start);
    return s;
}

/** Gaps between consecutive task completions after warm-up, ms. */
void
appendIntervals(const runtime::RunResult& res, int last_stage, int warmup,
                std::vector<double>& out)
{
    std::vector<double> done;
    for (const auto& e : res.trace.events())
        if (e.isStage() && e.stage == last_stage)
            done.push_back(e.endSeconds);
    std::sort(done.begin(), done.end());
    for (std::size_t i = static_cast<std::size_t>(std::max(warmup, 1));
         i < done.size(); ++i)
        out.push_back((done[i] - done[i - 1]) * 1e3);
}

/** Per-layer sums of the traced loop (host-runtime trace stats). */
struct HostSums
{
    double runs = 0, queueWaitS = 0, bubble = 0, busy = 0, affinity = 0;
};

ClosedLoop
runLoop(const NativeSetup& s, double seconds, Tracer& tracer,
        Calibration& cal, HostSums& sums, Result& r)
{
    const auto cfg = runConfig(kTasksPerRun);
    const core::NativeExecutor executor(s.soc, cfg);
    ClosedLoop loop;
    loop.kinds = static_cast<int>(s.combos.size());
    const auto start = Clock::now();
    while (secondsSince(start) < seconds) {
        for (int k = 0; k < loop.kinds; ++k) {
            const Combo& c = s.combos[static_cast<std::size_t>(k)];
            const auto& app = s.apps[static_cast<std::size_t>(c.app)];
            runtime::RunResult res;
            {
                Tracer::Scope span(tracer, "runtime.host", "execute");
                res = executor.execute(app, c.schedule);
            }
            cal.sample(0.25);
            r.attempted += kTasksPerRun;
            if (!res.valid() || res.tasks != kTasksPerRun) {
                r.failed += kTasksPerRun;
                r.fail(app.name() + " native run invalid: "
                       + (res.valid() ? std::string("task count")
                                      : res.validationErrors.front()));
                continue;
            }
            loop.ops += res.tasks;
            appendIntervals(res, app.numStages() - 1, cfg.warmupTasks,
                            loop.opMs);
            loop.opKind.resize(loop.opMs.size(), k);
            if (tracer.enabled()) {
                const auto stats = res.trace.stats();
                sums.runs += 1;
                sums.queueWaitS += stats.meanQueueWaitSeconds;
                sums.bubble += stats.bubbleFraction;
                double busy = 0.0;
                for (double f : res.chunkBusyFraction)
                    busy += f;
                sums.busy += busy
                    / static_cast<double>(res.chunkBusyFraction.size());
                sums.affinity += res.affinityApplied ? 1.0 : 0.0;
            }
        }
    }
    loop.seconds = secondsSince(start);
    return loop;
}

/** Virtual per-task latency and speedup of the same schedules on a
 *  model of this host. The native host model is noise-free, so the
 *  twin carries 2% measurement noise salted by the seed, like the
 *  paper rigs. */
void
virtualTwin(const NativeSetup& s, std::uint64_t seed, double& virt_ms,
            double& speedup)
{
    platform::SocDescription twin = s.soc;
    twin.noiseSigma = 0.02;
    const platform::PerfModel model(twin);
    runtime::RunConfig cfg;
    cfg.noiseSalt = deriveSeed(seed, 1);
    const core::SimExecutor executor(model, cfg);
    std::vector<double> ms, speedups;
    for (const auto& app : s.apps) {
        const auto schedules = schedulesFor(app.numStages());
        const double cpu
            = executor.execute(app, schedules[0]).taskIntervalSeconds;
        const double split
            = executor.execute(app, schedules[1]).taskIntervalSeconds;
        const double simt = executor
                                .execute(app, core::Schedule::homogeneous(
                                                  app.numStages(), 1))
                                .taskIntervalSeconds;
        ms.push_back(cpu * 1e3);
        ms.push_back(split * 1e3);
        speedups.push_back(std::min(cpu, simt) / split);
    }
    virt_ms = geomean(ms);
    speedup = geomean(speedups);
}

/** Direct Stage::runCpu / runGpu calls on a fresh task, in pipeline
 *  order, plus the validator on each result. */
void
probeKernels(const NativeSetup& s, Tracer& tracer, Result& r)
{
    std::map<std::string, std::vector<double>> stage_ms;
    std::vector<double> validate_ms;
    for (int round = 0; round < kProbeRounds; ++round) {
        for (std::size_t a = 0; a < s.apps.size(); ++a) {
            const auto& app = s.apps[a];
            const auto& names = nativeStageNames(s.keys[a]);
            for (const bool simt : {false, true}) {
                auto task = app.makeTask(round, s.soc.seed);
                for (int st = 0; st < app.numStages(); ++st) {
                    core::KernelCtx ctx{*task};
                    const auto t = Clock::now();
                    {
                        Tracer::Scope span(tracer, "kernels", "stage");
                        if (simt)
                            app.stage(st).runGpu(ctx);
                        else
                            app.stage(st).runCpu(ctx);
                    }
                    stage_ms["kernels." + s.keys[a] + "."
                             + names[static_cast<std::size_t>(st)]
                             + (simt ? ".simt_ms" : ".cpu_ms")]
                        .push_back(secondsSince(t) * 1e3);
                }
                const auto t = Clock::now();
                const std::string error = app.validate(*task);
                validate_ms.push_back(secondsSince(t) * 1e3);
                if (!error.empty())
                    r.fail(app.name() + " kernel probe invalid: " + error);
            }
        }
    }
    for (const auto& [name, ms] : stage_ms)
        r.metrics.set(name, median(ms), "ms");
    r.metrics.set("native.validate_ms", median(validate_ms), "ms");
    for (std::size_t a = 0; a < s.apps.size(); ++a) {
        double flops = 0.0, cpu_s = 0.0;
        for (int st = 0; st < s.apps[a].numStages(); ++st) {
            flops += s.apps[a].stage(st).work().flops;
            cpu_s += r.metrics.get(
                         "kernels." + s.keys[a] + "."
                         + nativeStageNames(s.keys[a])
                               [static_cast<std::size_t>(st)]
                         + ".cpu_ms")
                / 1e3;
        }
        r.metrics.set("kernels." + s.keys[a] + ".gflops",
                      flops / cpu_s / 1e9, "GFLOP/s");
    }
}

} // namespace

Result
runNativeHost(const Options& opt)
{
    Result r;
    Calibration cal;
    std::unique_ptr<NativeSetup> setup;
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> build_ms;
    for (int k = 0; k < kSetups; ++k) {
        setup.reset(); // one set-up alive at a time
        cal.sample();
        setup = setUp(opt.seed, r);
        setup_s.push_back(setup->seconds);
        for (const auto& [app, ms] : setup->buildMs)
            build_ms[app].push_back(ms);
    }
    const NativeSetup& s = *setup;

    Tracer off(false);
    HostSums unused;
    if (!opt.trace) {
        const ClosedLoop loop
            = runLoop(s, opt.seconds, off, cal, unused, r);
        double virt_ms = 0.0, speedup = 0.0;
        virtualTwin(s, opt.seed, virt_ms, speedup);
        setEndToEnd(r, closedLoopFigures(loop, median(setup_s)), cal,
                    virt_ms, speedup);
        return r;
    }

    const ClosedLoop untraced
        = runLoop(s, opt.seconds * 0.4, off, cal, unused, r);
    Tracer on(true);
    HostSums sums;
    const ClosedLoop traced
        = runLoop(s, opt.seconds * 0.4, on, cal, sums, r);
    probeKernels(s, on, r);

    auto& m = r.metrics;
    for (const auto& [app, ms] : build_ms)
        m.set("apps." + app + ".build_ms", median(ms), "ms");
    m.set("host.queue_wait_ms", sums.queueWaitS * 1e3 / sums.runs, "ms");
    m.set("host.bubble_frac", sums.bubble / sums.runs, "ratio");
    m.set("host.chunk_busy_frac", sums.busy / sums.runs, "ratio");
    m.set("host.affinity_applied", sums.affinity / sums.runs, "ratio");
    m.set("max_ok_rps", goodput(untraced, kLimitMs), "1/s");
    setRawFigures(r, closedLoopFigures(untraced, median(setup_s)), cal);
    setTraceDelta(r, typicalOpMs(untraced), typicalOpMs(traced));
    setSelfTimes(r, on, traced.ops);
    if (!opt.spansPath.empty())
        on.writeChromeJson(opt.spansPath);
    return r;
}

} // namespace perfbench
