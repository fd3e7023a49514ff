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

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "platform/perf_model.hpp"
#include "runtime/run_types.hpp"

namespace bt::runtime {

/**
 * Integrates SoC energy over a virtual-time run: between engine events
 * the set of active PU classes is constant, so power is piecewise
 * constant and integration is exact. The caller reports each interval
 * with its busy-class mask. A run revisits the same few masks, so
 * PerfModel::systemPowerW runs once per distinct mask (up to
 * kPowerCapacity of them; later masks are computed each time).
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
    static constexpr int kPowerSlots = 64; ///< one bit of occupied_ each
    static constexpr int kPowerCapacity = 48;

    /** systemPowerW(@p mask), memoized. */
    double powerW(std::uint64_t mask);

    const platform::PerfModel& model_;
    double joules_ = 0.0;
    std::uint64_t occupied_ = 0; ///< bit i: slot i holds a mask
    int powerCount_ = 0;
    std::array<std::uint64_t, kPowerSlots> masks_{};
    std::array<double, kPowerSlots> watts_{};
};

/**
 * Per-run memo of the DES rate function, shared by both virtual-time
 * policies. A pipelined run revisits the same active sets over and over
 * (each chunk cycles through its few stages), so PerfModel::timesOf
 * runs once per distinct set and a hit copies the stored rates. The key
 * is the ordered (stage, PU) list of the active tasks, in the engine's
 * active order: timesOf folds demand in load order, so the same set in
 * another order may differ in the low bits. Every other rate input is
 * fixed for the run (the application, the ambient demand) except the
 * clock scales, and the owner flush()es the memo whenever those change.
 * Hits are therefore bit-identical to recomputing.
 *
 * Bounded: at most kCapacity sets are stored; once full, further sets
 * are computed without inserting. A memo lives inside one run() call,
 * so concurrent runs share nothing.
 */
class RateMemo
{
  public:
    /** Rates of @p app's stages on @p model under @p ambient_gbps of
     *  co-runner demand. */
    RateMemo(const platform::PerfModel& model, const core::Application& app,
             double ambient_gbps);

    /** Key code of one active task: stage @p stage on PU @p pu. */
    static std::uint32_t
    code(int stage, int pu)
    {
        return (static_cast<std::uint32_t>(stage) << kPuBits)
            | static_cast<std::uint32_t>(pu);
    }

    /**
     * Write each active task's progress rate (1 / its time) to @p out.
     * @p key holds one code() per task, in the engine's active order;
     * @p clock_scale as PerfModel::timesOf.
     */
    void rates(std::span<const std::uint32_t> key,
               std::span<const double> clock_scale,
               std::span<double> out);

    /** Drop every stored set (the clock scales changed). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    static constexpr std::size_t kCapacity = 512;

  private:
    static constexpr int kPuBits = 6;
    static_assert(platform::SocDescription::kMaxPus == 1 << kPuBits,
                  "a key code must hold every PU class");
    static constexpr std::size_t kSlots = 2 * kCapacity; ///< power of 2
    static constexpr std::int16_t kEmpty = -1;

    /** One stored set: its codes and rates live at [offset, +size). */
    struct Entry
    {
        std::uint64_t hash;
        std::uint32_t offset;
        std::uint32_t size;
    };

    const platform::PerfModel& model_;
    const core::Application& app_;
    double ambientGbps_;
    std::vector<platform::Load> loads_; ///< a miss's timesOf input
    std::array<std::int16_t, kSlots> slots_; ///< entry index or kEmpty
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> codes_;
    std::vector<double> rates_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
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
