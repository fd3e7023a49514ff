/**
 * @file
 * Cached schedule evaluation: the BT-Optimizer hot loop of every
 * planner engine.
 *
 * Producing a deployed schedule means scoring thousands of
 * (stage -> PU) assignments: the exhaustive engine scores each
 * enumerated schedule, the solver each DPLL solution, the annealer each
 * new proposal, and fault-time replans repeat the work. All of those
 * scores decompose into per-chunk contributions - the predicted time of
 * running stages [first, last] back-to-back on one PU - and the chunk
 * space is tiny (O(stages^2 x PUs)) while the schedule space is
 * exponential. ScheduleEvaluator exploits that:
 *
 *  1. a dense *chunk-time table* filled once by extending each range one
 *     stage at a time - the same left-fold ProfilingTable::rangeTime
 *     computes, so every entry is bit-identical to the from-scratch sum;
 *  2. a *keyed prediction cache*: full Prediction records (latency,
 *     gapness, energy, chunk count) cached in a SchedulePool by
 *     packed assignment key (packAssignment), shared across the
 *     solver harvest and graceful-degradation replans against the
 *     same table;
 *  3. per-(PU, busy others) active power and per-PU idle power,
 *     looked up once from the PerfModel, so the energy model reads
 *     tables instead of re-deriving clock factors per chunk.
 *
 * predict() is a memo lookup followed by score(), the unmemoized
 * scoring. The annealed engine deduplicates in its own pool
 * (anneal.hpp) and calls score() on a pool miss, so each schedule it
 * visits is hashed and stored once, never in this memo. The exhaustive
 * engine calls score() too, since its assignments are distinct, unless
 * its evaluator is shared and outlives it (PlannerSpec::sharedEvaluator).
 *
 * Cross-tenant co-placement rides the same machinery: when constructed
 * with a ContentionProfile, predictions can be asked for under an
 * ambient-bandwidth *bucket* (a co-runner's quantized DRAM demand).
 * Each bucket gets its own chunk-time table - the base table's cells
 * multiplied by the profile's per-(stage, PU, bucket) stretch factors,
 * built lazily on first use - and its own memo, so scoring a schedule
 * against any co-runner level is a cached lookup. Bucket 0 is the
 * uncontended baseline and shares the bit-exactness contract below.
 *
 * Bit-exactness contract: every number an evaluator returns is the
 * exact double a from-scratch computation (Schedule::bottleneckTime,
 * Schedule::gapness, and the per-chunk energy loop over
 * Schedule::chunkTime) would produce. Latency and gapness are max/min
 * folds over cached chunk times; the energy model runs the from-scratch
 * loop operation for operation over the same cached values, its power
 * tables holding the very doubles PerfModel::activePowerW and
 * PuModel::idlePowerW return. Tests cross-validate this over entire
 * schedule spaces.
 *
 * Thread compatibility: the evaluator caches internally and is NOT
 * safe for concurrent use. The planning path is single-threaded (only
 * candidate *executions* fan out, see autotuner.hpp); fault-time
 * replans serialize through their backend's recovery lock.
 */

#ifndef BT_CORE_SCHEDULE_EVAL_HPP
#define BT_CORE_SCHEDULE_EVAL_HPP

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "platform/perf_model.hpp"
#include "platform/soc.hpp"

namespace bt::core {

/** Model-predicted cost of one schedule, independent of its Schedule
 *  object identity (everything Optimizer ranks on). */
struct Prediction
{
    double latency = 0.0;  ///< bottleneck chunk time, seconds
    double gapness = 0.0;  ///< longest minus shortest chunk, seconds
    double energyJ = 0.0;  ///< predicted per-task SoC energy, joules
    int numChunks = 0;     ///< distinct PU classes used
    /** Aggregate DRAM demand of the assignment: sum over used PUs of
     *  the hungriest stage placed there. 0 without a contention
     *  profile. Milli-GB/s (exact integers) plus the GB/s view. */
    std::int64_t demandMilli = 0;
    double demandGbps = 0.0;
};

/** Most stages, and most PU classes, a packed assignment key holds. */
inline constexpr int kMaxPackedStages = 16;

/** Whether (@p num_stages x @p num_pus) assignments pack into 64-bit
 *  keys: 4 bits per stage, so at most 16 stages of 16 PU classes. */
constexpr bool
packable(int num_stages, int num_pus)
{
    return num_stages <= kMaxPackedStages && num_pus <= kMaxPackedStages;
}

/**
 * Packed 64-bit key of a stage -> PU assignment: 4 bits per stage with
 * stage 0 in the highest nibble used. Valid only for packable()
 * instances. Because stage 0 sits highest and every PU index fits its
 * nibble, the integer order of two keys over the same stage count is
 * the lexicographic order of their assignments (the order of
 * Schedule::toAssignment() vectors) - the planner's ranking tie-break
 * relies on that. SchedulePool (the evaluator memo, the annealer's
 * pool) keys its entries with it.
 */
inline std::uint64_t
packAssignment(std::span<const int> stage_to_pu)
{
    std::uint64_t key = 0;
    for (const int pu : stage_to_pu)
        key = (key << 4) | static_cast<std::uint64_t>(pu);
    return key;
}

/** Inverse of packAssignment: decode @p key into @p out.size() stages. */
inline void
unpackAssignment(std::uint64_t key, std::span<int> out)
{
    for (std::size_t s = out.size(); s-- > 0; key >>= 4)
        out[s] = static_cast<int>(key & 0xF);
}

/** Cache effectiveness counters (for stats and the bench harness). */
struct EvalStats
{
    std::uint64_t hits = 0;    ///< predictions served from the memo
    /** Schedules scored (every score() call, including predict()'s
     *  memo misses), memoized or not. */
    std::uint64_t misses = 0;
    /** predict() calls on instances too wide for the memo (each is
     *  also a miss). */
    std::uint64_t unkeyed = 0;
};

/**
 * Flat, deduplicated store of scored schedules: the evaluator's memo,
 * the annealed engine's visited pool and the exhaustive engine's
 * admissible set (the last two feed the planner's shared selection).
 * Entry i is a Prediction plus its
 * assignment - the packAssignment key on packable() instances, the
 * stored stage -> PU vector otherwise - in first-insert order. One
 * open-addressing table maps assignments to entries, so a lookup is a
 * single hash probe and an insert allocates nothing beyond amortized
 * array growth.
 */
class SchedulePool
{
  public:
    static constexpr std::uint32_t kAbsent = 0xffffffffu;

    SchedulePool(int num_stages, int num_pus);

    int numStages() const { return numStages_; }
    /** Whether entries are identified by packed keys. */
    bool keyed() const { return keyed_; }
    std::size_t size() const { return preds_.size(); }
    bool empty() const { return preds_.empty(); }

    /** Outcome of find(): the pooled entry, or kAbsent plus the spot
     *  where insert() puts it. */
    struct Probe
    {
        std::uint64_t hash = 0;
        std::size_t slot = 0;
        std::uint32_t entry = kAbsent;
    };

    Probe find(std::span<const int> stage_to_pu) const;

    /**
     * Pool @p pred for the assignment @p probe (from find() on the
     * same assignment, with no insert in between) missed on. Returns
     * the stored copy, valid until the next insert.
     */
    const Prediction& insert(const Probe& probe,
                             std::span<const int> stage_to_pu,
                             const Prediction& pred);

    /** Insert unless already pooled; true when the entry is new. */
    bool add(std::span<const int> stage_to_pu, const Prediction& pred);

    const std::vector<Prediction>& predictions() const { return preds_; }
    const Prediction& prediction(std::size_t i) const { return preds_[i]; }

    /** packAssignment key of entry @p i (keyed pools only). */
    std::uint64_t key(std::size_t i) const { return keys_[i]; }

    /** Decode entry @p i's assignment into @p out (numStages() PUs). */
    void assignment(std::size_t i, std::span<int> out) const;

    /** Lexicographic order of entries' assignments. */
    bool assignmentLess(std::size_t a, std::size_t b) const;

  private:
    struct Slot
    {
        std::uint64_t hash = 0;
        std::uint32_t entry = kAbsent;
    };

    std::uint64_t hashOf(std::span<const int> stage_to_pu) const;
    std::size_t home(std::uint64_t hash) const;
    std::span<const int> wide(std::size_t i) const;
    void grow();

    int numStages_;
    bool keyed_;
    std::vector<Prediction> preds_;
    std::vector<std::uint64_t> keys_; ///< keyed: packed key per entry
    std::vector<int> wide_;           ///< unkeyed: numStages_ per entry
    std::vector<Slot> slots_;         ///< power-of-two table, <= 1/2 full
    int shift_;                       ///< 64 - log2(slots_.size())
};

/**
 * Incremental, memoizing evaluator over one (device, profiling table)
 * pair. Construction costs O(stages^2 x PUs); every evaluation after
 * that is O(stages) worst case and O(1) on a cache hit.
 */
class ScheduleEvaluator
{
  public:
    /**
     * @p contention (optional) enables bucketed predictions; it must
     * describe the same (stage, PU) grid as @p table and outlive the
     * evaluator. Without it only bucket 0 is valid.
     */
    ScheduleEvaluator(const platform::SocDescription& soc,
                      const ProfilingTable& table,
                      const platform::PerfModel& power_model,
                      const platform::ContentionProfile* contention
                      = nullptr);

    const ProfilingTable& table() const { return table_; }

    int numStages() const { return numStages_; }
    int numPus() const { return numPus_; }

    /** Chunk time of stages [first, last] on @p pu; bit-identical to
     *  table().rangeTime(first, last, pu), O(1). */
    double
    chunkTime(int first, int last, int pu) const
    {
        return chunkTimes_[chunkIndex(first, last, pu)];
    }

    /**
     * Predict @p stage_to_pu (one PU index per stage, contiguity
     * C2-respecting) under ambient bucket @p bucket. Memoized by
     * packed key when the instance fits 16 stages x 16 PU classes;
     * computed directly otherwise. The returned reference is valid
     * until the next predict() call.
     */
    const Prediction& predict(std::span<const int> stage_to_pu,
                              int bucket = 0);

    /** Convenience overload scoring a built Schedule. */
    const Prediction& predict(const Schedule& schedule, int bucket = 0);

    /**
     * Score @p stage_to_pu under @p bucket without consulting or
     * filling the memo: the from-scratch-shaped evaluation over the
     * cached chunk times that predict() runs on a memo miss. For
     * callers that deduplicate schedules themselves (the annealer's
     * pool), so a schedule is stored once. Counted in stats().misses.
     */
    Prediction score(std::span<const int> stage_to_pu, int bucket = 0);

    /** Memo effectiveness since construction. */
    const EvalStats& stats() const { return stats_; }

  private:
    std::size_t
    chunkIndex(int first, int last, int pu) const
    {
        return (static_cast<std::size_t>(first)
                * static_cast<std::size_t>(numStages_)
                + static_cast<std::size_t>(last))
            * static_cast<std::size_t>(numPus_)
            + static_cast<std::size_t>(pu);
    }

    std::size_t
    activeIndex(int pu, int busy_others) const
    {
        return static_cast<std::size_t>(pu)
            * static_cast<std::size_t>(numPus_)
            + static_cast<std::size_t>(busy_others);
    }

    /** Chunk-time table of @p bucket, building it on first use. */
    const std::vector<double>& chunkTable(int bucket);

    const platform::SocDescription& soc_;
    const ProfilingTable& table_;
    const platform::ContentionProfile* contention_;
    int numStages_;
    int numPus_;

    std::vector<double> chunkTimes_; ///< [first][last][pu], left-fold
    /** PerfModel::activePowerW(pu, busy_others), [pu][busy_others]. */
    std::vector<double> activePowerW_;
    std::vector<double> idlePowerW_; ///< PuModel::idlePowerW per PU
    SchedulePool memo_; ///< bucket 0; used only when memo_.keyed()
    /** Lazily built stretched chunk tables and memos, bucket > 0. */
    std::unordered_map<int, std::vector<double>> bucketChunkTimes_;
    std::unordered_map<int, SchedulePool> bucketMemo_;
    Prediction scratch_; ///< returned for unkeyed instances
    EvalStats stats_;
    std::vector<int> assignScratch_; ///< Schedule -> assignment, reused
    std::vector<char> usedScratch_;  ///< energy model's used-PU flags
};

} // namespace bt::core

#endif // BT_CORE_SCHEDULE_EVAL_HPP
