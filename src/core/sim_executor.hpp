/**
 * @file
 * Simulated BT-Implementer: executes a pipeline schedule on a simulated
 * SoC in virtual time (DESIGN.md substitution table).
 *
 * Thin policy over the unified runtime: the dispatcher core lives in
 * runtime::PipelineSession and the DES time domain in
 * runtime::VirtualTimeBackend; this class keeps the historical
 * core-level entry point. Results are runtime::RunResult, so a run's
 * structured TraceTimeline rides along.
 */

#ifndef BT_CORE_SIM_EXECUTOR_HPP
#define BT_CORE_SIM_EXECUTOR_HPP

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "platform/perf_model.hpp"
#include "runtime/virtual_backend.hpp"

namespace bt::core {

/** Execution knobs (the unified runtime config). */
using SimExecConfig = runtime::RunConfig;

/** Virtual-time pipeline executor over one simulated device. */
class SimExecutor
{
  public:
    explicit SimExecutor(const platform::PerfModel& model,
                         SimExecConfig cfg = {});

    /** Execute @p app under @p schedule and measure it. */
    runtime::RunResult execute(const Application& app,
                               const Schedule& schedule) const;

    /**
     * execute() without trace recording, for callers that read only
     * the measured figures (autotuning candidates, baselines). Every
     * figure is bit-identical to execute()'s; the trace is empty.
     */
    runtime::RunResult measure(const Application& app,
                               const Schedule& schedule) const;

  private:
    runtime::VirtualTimeBackend backend;
    SimExecConfig config;
    SimExecConfig untraced; ///< config with recordTrace off
};

} // namespace bt::core

#endif // BT_CORE_SIM_EXECUTOR_HPP
