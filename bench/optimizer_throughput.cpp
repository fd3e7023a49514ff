/**
 * @file
 * Plan-throughput trajectory suite (BENCH_optimizer.json): how many
 * schedules per second the optimizer can score, what a full
 * profile -> optimize -> tune plan costs end to end, and how fast the
 * graceful-degradation replan path recovers after a PU dropout.
 *
 * The enumeration, end-to-end and replan rows plan with the default
 * exact engine (Exhaustive); the large-instance row anneals. The
 * predicted_best_latency_ms /
 * measured_best_latency_ms / candidates_tuned counters and the replan
 * label are semantic anchors: plans are deterministic, so any change
 * against the committed snapshot is a correctness regression, not
 * noise.
 */

#include <benchmark/benchmark.h>

#include <thread>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bench/common/bench_util.hpp"
#include "core/autotuner.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "core/schedule_eval.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/recovery.hpp"

namespace {

using namespace bt;

/**
 * Schedules/second through the exhaustive engine: every enumerable
 * schedule of AlexNet-sparse on the Pixel is scored per iteration.
 */
void
BM_EnumerationThroughput_Throughput(benchmark::State& state)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const core::Profiler profiler(model);
    const auto profile = profiler.profile(app);

    const auto space = core::scheduleSpaceSize(app.numStages(),
                                               soc.numPus());

    double best_latency = 0.0;
    for (auto _ : state) {
        core::Optimizer optimizer(soc, profile.interference);
        const auto cands = optimizer.optimize();
        best_latency = cands.front().predictedLatency;
        benchmark::ClobberMemory();
    }
    state.counters["schedule_space"] = static_cast<double>(space);
    state.counters["predicted_best_latency_ms"] = best_latency * 1e3;
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(space));
}
BENCHMARK(BM_EnumerationThroughput_Throughput);

/**
 * End-to-end plan latency: profile -> optimize (default K = 20) ->
 * autotune all candidates on every hardware thread. The acceptance
 * anchor for the planning layer.
 */
void
BM_PlanEndToEnd_Throughput(benchmark::State& state)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();

    core::SimExecConfig exec_cfg;
    exec_cfg.noiseSalt = bench::benchNoiseSalt();
    const core::SimExecutor executor(model, exec_cfg);
    const unsigned hw = std::thread::hardware_concurrency();
    const int threads = static_cast<int>(hw == 0 ? 1 : hw);

    double best_measured = 0.0;
    int candidates_tuned = 0;
    for (auto _ : state) {
        const core::Profiler profiler(model);
        const auto profile = profiler.profile(app);
        core::Optimizer optimizer(soc, profile.interference);
        const auto cands = optimizer.optimize();
        const core::AutoTuner tuner(executor, 10.0, threads);
        const auto report = tuner.tune(app, cands);
        best_measured = report.best().measuredLatency;
        candidates_tuned = static_cast<int>(report.all.size());
        benchmark::ClobberMemory();
    }
    state.counters["candidates_tuned"]
        = static_cast<double>(candidates_tuned);
    state.counters["measured_best_latency_ms"] = best_measured * 1e3;
    state.SetItemsProcessed(state.iterations() * candidates_tuned);
}
BENCHMARK(BM_PlanEndToEnd_Throughput)->Unit(benchmark::kMillisecond);

/**
 * Replan latency after a simulated PU dropout: the fault-recovery
 * critical path, two successive replans through one ReplanPlanner,
 * whose second dropout hits the warm prediction memo.
 */
void
BM_ReplanAfterDropout_Throughput(benchmark::State& state)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    // Two successive dropouts, as a degrading device would see them.
    std::vector<bool> first_loss(
        static_cast<std::size_t>(soc.numPus()), true);
    first_loss[0] = false;
    std::vector<bool> second_loss = first_loss;
    second_loss[1] = false;

    std::string plan_digest;
    for (auto _ : state) {
        runtime::ReplanPlanner planner(model, app);
        const auto a = planner.replan(first_loss);
        const auto b = planner.replan(second_loss);
        plan_digest = a.compactString() + "|" + b.compactString();
        benchmark::ClobberMemory();
    }
    state.SetLabel(plan_digest);
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ReplanAfterDropout_Throughput)
    ->Unit(benchmark::kMillisecond);

/**
 * Large-instance tier: the annealed engine plans the 14-stage deep
 * pipeline on the 8-class manycore rig - ~1.7e8 schedules over 112
 * assignment variables, far past the exact engines' enumeration limit
 * (they refuse the instance outright; exact_enumerable records the
 * refusal predicate) - under an active C6 budget, inside a fixed move
 * budget. There is no exact baseline at this scale, which is the
 * point of the tier. moves_proposed, distinct_schedules (pooled, each
 * scored once), filtered (C6 rejections) and annealed_best_latency_ms
 * are deterministic anchors of the walk.
 */
void
BM_LargeInstanceAnnealed(benchmark::State& state)
{
    const auto soc = platform::manycoreRig();
    const auto table = bench::deepPipelineTable(soc);
    const auto contention = bench::deepPipelineContention(soc, table);

    core::PlannerSpec spec;
    spec.engine = core::PlannerEngine::Annealed;
    spec.contention.budgetGbps = soc.mem.dramBwGbps;
    spec.contentionProfile = &contention;

    double best_latency = 0.0;
    bool c6_feasible = false;
    core::OptimizeStats stats;
    for (auto _ : state) {
        core::Optimizer optimizer(soc, table, spec);
        const auto cands = optimizer.optimize();
        best_latency = cands.front().predictedLatency;
        c6_feasible = cands.front().predictedDemandGbps
            <= spec.contention.budgetGbps + 1e-9;
        stats = optimizer.stats();
        benchmark::ClobberMemory();
    }
    state.counters["assignment_variables"] = static_cast<double>(
        table.numStages() * soc.numPus());
    state.counters["schedule_space"]
        = static_cast<double>(stats.spaceSize);
    state.counters["exact_enumerable"]
        = stats.spaceSize <= spec.exactSpaceLimit ? 1.0 : 0.0;
    state.counters["moves_proposed"]
        = static_cast<double>(stats.annealProposed);
    state.counters["distinct_schedules"]
        = static_cast<double>(stats.annealDistinct);
    state.counters["filtered"] = static_cast<double>(stats.annealFiltered);
    state.counters["annealed_best_latency_ms"] = best_latency * 1e3;
    state.counters["c6_feasible"] = c6_feasible ? 1.0 : 0.0;
    state.SetItemsProcessed(state.iterations() * stats.annealProposed);
}
BENCHMARK(BM_LargeInstanceAnnealed)->Unit(benchmark::kMillisecond);

} // namespace
