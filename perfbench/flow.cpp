/**
 * @file
 * The flow workloads: closed loops of bt::Framework::run, the paper's
 * profile -> plan -> autotune -> deploy loop.
 *
 *  - flow-paper: the 12 (app, rig) pairs of paper Fig. 4 with the
 *    default exact planner;
 *  - flow-manycore: the 3 paper apps on the 8-class manycore rig with
 *    the annealed planner.
 *
 * The untraced loop calls Framework::run. The traced loop makes the
 * same calls one layer at a time (preflight, Profiler, Optimizer,
 * AutoTuner, SimExecutor) inside spans, and must pick the same schedule
 * and latency as the untraced call.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bt;

/** A rig/planner combination and the app mix it runs. */
struct FlowSpec
{
    std::vector<platform::SocDescription> rigs;
    bool annealed = false;
    /** Closed-loop latency limit for max_ok_rps (goodput), ms. */
    double limitMs = 0.0;
};

/** What the warm-up run of a pair deployed: every later op must agree
 *  bit for bit. */
struct Reference
{
    core::Schedule schedule;
    double bestLatency = 0.0;
    double deployedInterval = 0.0;
    double speedup = 0.0;
};

struct Pair
{
    int rig = 0;
    int app = 0;
};

/** One set-up: apps, frameworks, the seeded op order and references. */
struct FlowSetup
{
    std::vector<core::Application> apps;
    std::vector<std::unique_ptr<Framework>> frameworks;
    std::vector<FrameworkConfig> configs;
    std::vector<Pair> order;
    std::vector<Reference> refs; ///< indexed like order
    std::map<std::string, double> buildMs;
    double seconds = 0.0;
};

FrameworkConfig
flowConfig(const FlowSpec& spec, std::uint64_t seed)
{
    FrameworkConfig cfg;
    cfg.tunerThreads = 1;
    cfg.run.noiseSalt = deriveSeed(seed, 1);
    if (spec.annealed) {
        cfg.optimizer.engine = core::PlannerEngine::Annealed;
        cfg.optimizer.anneal.seed = deriveSeed(seed, 2);
    }
    return cfg;
}

std::unique_ptr<FlowSetup>
setUp(const FlowSpec& spec, std::uint64_t seed, Result& r)
{
    const auto start = Clock::now();
    auto s = std::make_unique<FlowSetup>();
    const auto timed = [&s](const char* name, auto build) {
        const auto t = Clock::now();
        s->apps.push_back(build());
        s->buildMs[name] = secondsSince(t) * 1e3;
    };
    timed("alexnet_dense", [] { return apps::alexnetDense(); });
    timed("alexnet_sparse", [] { return apps::alexnetSparse(); });
    timed("octree", [] { return apps::octreeApp(); });

    for (const auto& rig : spec.rigs) {
        s->configs.push_back(flowConfig(spec, seed));
        s->frameworks.push_back(
            std::make_unique<Framework>(rig, s->configs.back()));
    }

    // Seeded op order over every (rig, app) pair.
    for (int rig = 0; rig < static_cast<int>(spec.rigs.size()); ++rig)
        for (int app = 0; app < static_cast<int>(s->apps.size()); ++app)
            s->order.push_back({rig, app});
    Rng rng(deriveSeed(seed, 4));
    for (std::size_t i = s->order.size(); i > 1; --i)
        std::swap(s->order[i - 1], s->order[rng.nextBounded(i)]);

    // Warm-up: one op per pair, which is also the reference run.
    for (const Pair& p : s->order) {
        const auto& app = s->apps[static_cast<std::size_t>(p.app)];
        const auto report
            = s->frameworks[static_cast<std::size_t>(p.rig)]->run(app);
        if (!report.deployedRun.valid())
            r.fail("warm-up deployment of " + app.name() + " invalid");
        s->refs.push_back({report.bestSchedule, report.bestLatencySeconds,
                           report.deployedRun.taskIntervalSeconds,
                           report.speedupOverBestBaseline()});
    }
    s->seconds = secondsSince(start);
    return s;
}

/** Whether a run deployed exactly what the reference deployed. */
bool
matches(const Reference& ref, const core::Schedule& schedule,
        double best_latency, double deployed_interval)
{
    return schedule == ref.schedule && best_latency == ref.bestLatency
        && deployed_interval == ref.deployedInterval;
}

/** Untraced closed loop of Framework::run for @p seconds. */
ClosedLoop
runUntraced(const FlowSetup& s, double seconds, CpuRotation& rotation,
            Calibration& cal, Result& r)
{
    ClosedLoop loop;
    loop.kinds = static_cast<int>(s.order.size());
    const auto start = Clock::now();
    // Whole passes over the mix, so every pair weighs the same.
    while (secondsSince(start) < seconds) {
        rotation.next();
        cal.sample(0.25);
        for (std::size_t i = 0; i < s.order.size(); ++i) {
            const Pair& p = s.order[i];
            const auto& app = s.apps[static_cast<std::size_t>(p.app)];
            const auto t = Clock::now();
            const auto report
                = s.frameworks[static_cast<std::size_t>(p.rig)]->run(app);
            loop.opMs.push_back(secondsSince(t) * 1e3);
            loop.opKind.push_back(static_cast<int>(i));
            ++r.attempted;
            if (!report.deployedRun.valid()
                || !matches(s.refs[i], report.bestSchedule,
                            report.bestLatencySeconds,
                            report.deployedRun.taskIntervalSeconds)) {
                ++r.failed;
                r.fail("op on " + app.name()
                       + " deployed a different schedule or latency");
            }
        }
    }
    loop.seconds = secondsSince(start);
    loop.ops = static_cast<std::int64_t>(loop.opMs.size());
    return loop;
}

/** Per-layer sums over the traced loop. */
struct LayerSums
{
    double lintS = 0, profilerS = 0, profilerVirtualS = 0;
    double planS = 0, evals = 0, space = 0, solverNodes = 0;
    double predError = 0;
    double annealS = 0, proposed = 0, accepted = 0, filtered = 0;
    double tuneS = 0, candidates = 0;
    std::vector<double> gains;
    double deployS = 0, stageExecs = 0, baselinesS = 0;
    double traceOnS = 0, traceOffS = 0;
};

/**
 * Framework::run, one layer at a time, inside spans. Returns the op's
 * wall milliseconds (the trace-overhead probe that follows is not part
 * of the op).
 */
double
tracedOp(const FlowSetup& s, std::size_t i, Tracer& tracer,
         LayerSums& sums, Result& r)
{
    const Pair& p = s.order[i];
    const auto& app = s.apps[static_cast<std::size_t>(p.app)];
    const Framework& fw = *s.frameworks[static_cast<std::size_t>(p.rig)];
    const FrameworkConfig& cfg = s.configs[static_cast<std::size_t>(p.rig)];
    const auto& soc = fw.model().soc();
    const core::SimExecutor executor(fw.model(), cfg.run);

    const auto op_start = Clock::now();
    core::Schedule best;
    double best_latency = 0.0;
    runtime::RunResult deployed;
    {
        Tracer::Scope op(tracer, "bench", "op");
        auto t = Clock::now();
        {
            Tracer::Scope span(tracer, "lint", "preflight");
            if (fw.preflight(app).errors() > 0)
                r.fail("preflight of " + app.name() + " found errors");
        }
        sums.lintS += secondsSince(t);

        t = Clock::now();
        core::ProfileResult profile;
        {
            Tracer::Scope span(tracer, "core.profiler", "profile");
            profile = core::Profiler(fw.model(), cfg.profiler).profile(app);
        }
        sums.profilerS += secondsSince(t);
        sums.profilerVirtualS += profile.profilingCostSeconds;

        t = Clock::now();
        std::vector<core::Candidate> candidates;
        core::OptimizeStats stats;
        {
            const bool annealed
                = cfg.optimizer.engine == core::PlannerEngine::Annealed;
            Tracer::Scope span(tracer,
                               annealed ? "core.anneal" : "core.optimizer",
                               "optimize");
            core::Optimizer optimizer(soc, profile.interference,
                                      cfg.optimizer);
            candidates = optimizer.optimize();
            stats = optimizer.stats();
        }
        const double plan_s = secondsSince(t);
        sums.planS += plan_s;
        sums.evals += static_cast<double>(stats.evalHits + stats.evalMisses);
        sums.space += static_cast<double>(stats.spaceSize);
        sums.solverNodes += static_cast<double>(stats.solverNodes);
        if (stats.engine == core::PlannerEngine::Annealed) {
            sums.annealS += plan_s;
            sums.proposed += static_cast<double>(stats.annealProposed);
            sums.accepted += static_cast<double>(stats.annealAccepted);
            sums.filtered += static_cast<double>(stats.annealFiltered);
        }
        if (candidates.empty()) {
            r.fail("optimizer returned no candidate for " + app.name());
            return secondsSince(op_start) * 1e3;
        }

        t = Clock::now();
        core::TuningReport tuning;
        {
            Tracer::Scope span(tracer, "core.autotuner", "tune");
            tuning = core::AutoTuner(executor, 10.0, cfg.tunerThreads)
                         .tune(app, candidates);
        }
        sums.tuneS += secondsSince(t);
        sums.candidates += static_cast<double>(tuning.all.size());
        sums.gains.push_back(tuning.autotuningGain());
        best = tuning.best().candidate.schedule;
        best_latency = tuning.best().measuredLatency;
        for (const auto& tc : tuning.all)
            if (tc.rankPredicted == 0)
                sums.predError
                    += std::abs(tc.candidate.predictedLatency
                                - tc.measuredLatency)
                    / tc.measuredLatency;

        t = Clock::now();
        {
            Tracer::Scope span(tracer, "runtime.virtual", "deploy");
            deployed = executor.execute(app, best);
        }
        sums.deployS += secondsSince(t);
        sums.stageExecs += static_cast<double>(deployed.tasks)
            * static_cast<double>(app.numStages());

        t = Clock::now();
        {
            Tracer::Scope span(tracer, "runtime.virtual", "baselines");
            fw.measureHomogeneous(app, soc.bigCpuIndex());
            fw.measureHomogeneous(app, soc.gpuIndex());
        }
        sums.baselinesS += secondsSince(t);
    }
    const double op_ms = secondsSince(op_start) * 1e3;

    ++r.attempted;
    if (!deployed.valid()
        || !matches(s.refs[i], best, best_latency,
                    deployed.taskIntervalSeconds)) {
        ++r.failed;
        r.fail("layer-by-layer flow of " + app.name()
               + " disagrees with Framework::run");
    }

    // Trace-recording cost: the deployment run with recordTrace on and
    // off, in alternating order.
    runtime::RunConfig on = cfg.run, off = cfg.run;
    on.recordTrace = true;
    off.recordTrace = false;
    const core::SimExecutor traced(fw.model(), on), plain(fw.model(), off);
    for (int k = 0; k < 2; ++k) {
        const bool traced_first = (k + static_cast<int>(i)) % 2 == 0;
        for (int j = 0; j < 2; ++j) {
            const bool with_trace = (j == 0) == traced_first;
            const auto t = Clock::now();
            if (with_trace) {
                Tracer::Scope span(tracer, "runtime.trace", "trace_on");
                traced.execute(app, best);
            } else {
                Tracer::Scope span(tracer, "runtime.virtual", "trace_off");
                plain.execute(app, best);
            }
            (with_trace ? sums.traceOnS : sums.traceOffS)
                += secondsSince(t);
        }
    }
    return op_ms;
}

Result
runFlow(const FlowSpec& spec, const Options& opt)
{
    Result r;
    CpuRotation rotation; // flow ops are single-threaded
    Calibration cal;
    std::unique_ptr<FlowSetup> setup;
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> build_ms;
    std::vector<Reference> first_refs;
    for (int k = 0; k < kSetups; ++k) {
        setup.reset(); // one set-up alive at a time
        rotation.next();
        cal.sample();
        setup = setUp(spec, opt.seed, r);
        setup_s.push_back(setup->seconds);
        for (const auto& [app, ms] : setup->buildMs)
            build_ms[app].push_back(ms);
        if (k == 0)
            first_refs = setup->refs;
        for (std::size_t i = 0; i < first_refs.size(); ++i) {
            const Reference& ref = setup->refs[i];
            if (!matches(first_refs[i], ref.schedule, ref.bestLatency,
                         ref.deployedInterval))
                r.fail("set-up " + std::to_string(k)
                       + " deployed a different reference");
        }
    }

    std::vector<double> virt_ms, speedups;
    for (const Reference& ref : setup->refs) {
        virt_ms.push_back(ref.deployedInterval * 1e3);
        speedups.push_back(ref.speedup);
    }

    if (!opt.trace) {
        const ClosedLoop loop
            = runUntraced(*setup, opt.seconds, rotation, cal, r);
        setEndToEnd(r, closedLoopFigures(loop, median(setup_s)), cal,
                    geomean(virt_ms), geomean(speedups));
        return r;
    }

    const ClosedLoop untraced
        = runUntraced(*setup, opt.seconds / 2, rotation, cal, r);
    Tracer tracer(true);
    LayerSums sums;
    ClosedLoop traced;
    traced.kinds = static_cast<int>(setup->order.size());
    const auto start = Clock::now();
    while (secondsSince(start) < opt.seconds / 2) {
        rotation.next();
        cal.sample(0.25);
        for (std::size_t i = 0; i < setup->order.size(); ++i) {
            traced.opMs.push_back(tracedOp(*setup, i, tracer, sums, r));
            traced.opKind.push_back(static_cast<int>(i));
        }
    }
    traced.seconds = secondsSince(start);
    traced.ops = static_cast<std::int64_t>(traced.opMs.size());

    auto& m = r.metrics;
    const double ops = static_cast<double>(traced.ops);
    for (const auto& [app, ms] : build_ms)
        m.set("apps." + app + ".build_ms", median(ms), "ms");
    m.set("lint.preflight_ms", sums.lintS * 1e3 / ops, "ms");
    m.set("profiler.ms", sums.profilerS * 1e3 / ops, "ms");
    m.set("profiler.virtual_s", sums.profilerVirtualS / ops, "s_virt");
    m.set("optimizer.ms", sums.planS * 1e3 / ops, "ms");
    m.set("optimizer.evals", sums.evals / ops, "count");
    m.set("optimizer.evals_per_s", sums.evals / sums.planS, "1/s");
    m.set("optimizer.space", sums.space / ops, "count");
    m.set("optimizer.solver_nodes", sums.solverNodes / ops, "count");
    m.set("optimizer.pred_error", sums.predError / ops, "ratio");
    if (sums.proposed > 0) {
        m.set("anneal.ms", sums.annealS * 1e3 / ops, "ms");
        m.set("anneal.moves", sums.proposed / ops, "count");
        m.set("anneal.moves_per_s", sums.proposed / sums.annealS, "1/s");
        m.set("anneal.accept_ratio", sums.accepted / sums.proposed,
              "ratio");
        m.set("anneal.filtered_ratio", sums.filtered / sums.proposed,
              "ratio");
    }
    m.set("autotuner.ms", sums.tuneS * 1e3 / ops, "ms");
    m.set("autotuner.candidates", sums.candidates / ops, "count");
    m.set("autotuner.ms_per_candidate", sums.tuneS * 1e3 / sums.candidates,
          "ms");
    m.set("autotuner.gain", geomean(sums.gains), "x");
    m.set("virtual.run_us", sums.deployS * 1e6 / ops, "us");
    m.set("virtual.stage_execs", sums.stageExecs / ops, "count");
    m.set("virtual.ns_per_stage_exec", sums.deployS * 1e9 / sums.stageExecs,
          "ns");
    m.set("deploy.ms", sums.deployS * 1e3 / ops, "ms");
    m.set("baselines.ms", sums.baselinesS * 1e3 / ops, "ms");
    m.set("trace.overhead_frac",
          (sums.traceOnS - sums.traceOffS) / sums.traceOffS, "ratio");
    m.set("max_ok_rps", goodput(untraced, spec.limitMs), "1/s");
    setRawFigures(r, closedLoopFigures(untraced, median(setup_s)), cal);
    setTraceDelta(r, typicalOpMs(untraced), typicalOpMs(traced));
    setSelfTimes(r, tracer, traced.ops);
    if (!opt.spansPath.empty())
        tracer.writeChromeJson(opt.spansPath);
    return r;
}

} // namespace

Result
runFlowPaper(const Options& opt)
{
    return runFlow({platform::paperDevices(), false, 100.0}, opt);
}

Result
runFlowManycore(const Options& opt)
{
    return runFlow({{platform::manycoreRig()}, true, 2000.0}, opt);
}

} // namespace perfbench
