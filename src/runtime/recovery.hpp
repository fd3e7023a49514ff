/**
 * @file
 * Recovery decision helpers shared by the time backends: where a failed
 * chunk fails over to, and how the remaining schedule degrades when a
 * PU drops out.
 *
 * Failover ranks surviving PUs by the same quantity the BT-Profiler
 * measures (the interference-heavy stage time of the performance
 * model), so "profiled next-best PU" means exactly what it would on a
 * real device with a cached profiling table. Graceful degradation goes
 * further: it rebuilds that table restricted to surviving PUs and asks
 * the existing Optimizer for the best remaining schedule, then rebinds
 * the dead chunks of the deployed geometry to the PUs the new plan
 * assigns their stages (chunk boundaries are frozen at deployment —
 * the multi-buffer pool is already allocated against them).
 */

#ifndef BT_RUNTIME_RECOVERY_HPP
#define BT_RUNTIME_RECOVERY_HPP

#include <memory>
#include <optional>
#include <vector>

#include "core/application.hpp"
#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "core/schedule_eval.hpp"
#include "platform/perf_model.hpp"

namespace bt::runtime {

/**
 * Profiled next-best surviving PU for stages [first, last]: the alive
 * PU (excluding @p exclude) minimizing the summed interference-heavy
 * stage time. @return -1 when no alive PU remains.
 */
int nextBestPu(const platform::PerfModel& model,
               const core::Application& app, int first_stage,
               int last_stage, const std::vector<bool>& alive,
               int exclude);

/**
 * The noiseless profiled table recovery decisions rank against: one
 * interference-heavy model query per (stage, PU) — the mean the
 * BT-Profiler's 30 noisy repetitions converge to.
 */
core::ProfilingTable modelTable(const platform::PerfModel& model,
                                const core::Application& app);

/**
 * Graceful degradation: replan @p app on the surviving PUs with the
 * exhaustive engine over modelTable(). One lazily-built model table
 * and one warm ScheduleEvaluator are shared across every replan of a
 * run, so a second dropout pays neither the table rebuild nor
 * re-prediction of schedules the first replan already scored; the
 * result is the same schedule a fresh Optimizer would return.
 *
 * Not thread-safe: callers serialize replans (the host backend replans
 * under its fault-state mutex; the virtual backend is single-threaded).
 * Constructing the planner is free until the first replan.
 */
class ReplanPlanner
{
  public:
    ReplanPlanner(const platform::PerfModel& model,
                  const core::Application& app)
        : model_(model), app_(app)
    {
    }

    /** Best schedule over the surviving PUs. Panics if none survive. */
    core::Schedule replan(const std::vector<bool>& alive);

  private:
    const platform::PerfModel& model_;
    const core::Application& app_;
    std::optional<core::ProfilingTable> table_;
    std::unique_ptr<core::ScheduleEvaluator> eval_;
};

} // namespace bt::runtime

#endif // BT_RUNTIME_RECOVERY_HPP
