/**
 * @file
 * VirtualTimeBackend: the DES time domain of the unified runtime.
 *
 * Time passes on the discrete-event engine; a stage's duration comes
 * from the interference-aware performance model evaluated against the
 * *instantaneous* set of co-running stages, scaled by deterministic
 * seeded measurement noise. Because that set varies over the pipeline's
 * execution (ramp-up, bubbles, chunk imbalance), the measured latency
 * deviates from any static prediction in exactly the way real hardware
 * does - which is what makes the Fig. 5/6 accuracy experiments and the
 * autotuning level meaningful.
 *
 * Optionally, every stage's kernel is also executed functionally on the
 * host so output correctness under any schedule can be validated.
 *
 * The file also hosts the shared virtual-time utilities - the uniform
 * noise-factor derivation and the piecewise-constant energy meter -
 * used by both the static-pipeline policy here and the greedy policy in
 * greedy_runtime.
 */

#ifndef BT_RUNTIME_VIRTUAL_BACKEND_HPP
#define BT_RUNTIME_VIRTUAL_BACKEND_HPP

#include <cstdint>

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "platform/perf_model.hpp"
#include "runtime/run_types.hpp"

namespace bt::runtime {

/**
 * Integrates SoC energy over a virtual-time run: between engine events
 * the set of active PU classes is constant, so power is piecewise
 * constant and integration is exact. The caller reports each interval
 * with its busy-class mask.
 */
class EnergyMeter
{
  public:
    explicit EnergyMeter(const platform::PerfModel& model);

    /** Add [t0, t1) with the classes in @p active_pus (bit p = class
     *  p) executing. */
    void add(double t0, double t1, std::uint64_t active_pus);

    double joules() const { return joules_; }

  private:
    const platform::PerfModel& model_;
    double joules_ = 0.0;
};

/** Virtual-time execution of static pipeline schedules. */
class VirtualTimeBackend
{
  public:
    explicit VirtualTimeBackend(const platform::PerfModel& model);

    const platform::PerfModel& model() const { return model_; }

    /** Execute @p app under @p schedule in virtual time. */
    RunResult run(const core::Application& app,
                  const core::Schedule& schedule,
                  const RunConfig& cfg) const;

    /**
     * Deterministic measurement-noise factor for one stage execution,
     * uniform across every virtual-time policy: the device seed, the
     * run's noiseSalt, and a per-policy @p domain tag select a seeded
     * log-normal stream keyed by (task, stage).
     */
    static double noiseFactor(const platform::SocDescription& soc,
                              std::uint64_t salt, std::uint64_t domain,
                              std::int64_t task, int stage);

  private:
    const platform::PerfModel& model_;
};

} // namespace bt::runtime

#endif // BT_RUNTIME_VIRTUAL_BACKEND_HPP
