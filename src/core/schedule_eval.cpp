#include "core/schedule_eval.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bt::core {

ScheduleEvaluator::ScheduleEvaluator(
    const platform::SocDescription& soc, const ProfilingTable& table,
    const platform::PerfModel& power_model,
    const platform::ContentionProfile* contention)
    : soc_(soc), table_(table), contention_(contention),
      numStages_(table.numStages()), numPus_(table.numPus()),
      memo_(numStages_, numPus_)
{
    BT_ASSERT(table_.numPus() == soc_.numPus(),
              "profiling table PU count does not match device");
    if (contention_) {
        BT_ASSERT(contention_->numStages == numStages_
                      && contention_->numPus == numPus_,
                  "contention profile grid does not match table");
    }

    // Fill the chunk-time table by extending each range one stage at a
    // time: time(f, l) = time(f, l - 1) + at(l, p). This is the exact
    // left-fold rangeTime performs, so every entry is bit-identical to
    // the from-scratch sum.
    chunkTimes_.assign(static_cast<std::size_t>(numStages_)
                           * static_cast<std::size_t>(numStages_)
                           * static_cast<std::size_t>(numPus_),
                       0.0);
    for (int p = 0; p < numPus_; ++p) {
        for (int first = 0; first < numStages_; ++first) {
            double acc = 0.0;
            for (int last = first; last < numStages_; ++last) {
                acc += table_.at(last, p);
                chunkTimes_[chunkIndex(first, last, p)] = acc;
            }
        }
    }

    // Power draws the energy model reads per chunk, looked up once:
    // active power of each PU with 0..numPus-1 other PUs busy, and
    // each PU's idle power.
    activePowerW_.resize(static_cast<std::size_t>(numPus_)
                         * static_cast<std::size_t>(numPus_));
    idlePowerW_.resize(static_cast<std::size_t>(numPus_));
    for (int p = 0; p < numPus_; ++p) {
        for (int others = 0; others < numPus_; ++others)
            activePowerW_[activeIndex(p, others)]
                = power_model.activePowerW(p, others);
        idlePowerW_[static_cast<std::size_t>(p)] = soc_.pu(p).idlePowerW;
    }

    assignScratch_.resize(static_cast<std::size_t>(numStages_));
    usedScratch_.resize(static_cast<std::size_t>(numPus_));
}

const std::vector<double>&
ScheduleEvaluator::chunkTable(int bucket)
{
    if (bucket == 0)
        return chunkTimes_;
    BT_ASSERT(contention_ != nullptr,
              "bucketed prediction without a contention profile");
    BT_ASSERT(bucket > 0 && bucket < contention_->numBuckets,
              "ambient bucket ", bucket, " out of range");
    auto it = bucketChunkTimes_.find(bucket);
    if (it != bucketChunkTimes_.end())
        return it->second;

    // Same left-fold as the base table, over stretched cells: each
    // stage's contribution is its base time times the profile's
    // slowdown under this ambient bucket.
    std::vector<double> times(chunkTimes_.size(), 0.0);
    for (int p = 0; p < numPus_; ++p) {
        for (int first = 0; first < numStages_; ++first) {
            double acc = 0.0;
            for (int last = first; last < numStages_; ++last) {
                acc += table_.at(last, p)
                    * contention_->stretch(last, p, bucket);
                times[chunkIndex(first, last, p)] = acc;
            }
        }
    }
    return bucketChunkTimes_.emplace(bucket, std::move(times))
        .first->second;
}

Prediction
ScheduleEvaluator::score(std::span<const int> stage_to_pu, int bucket)
{
    ++stats_.misses;
    BT_ASSERT(static_cast<int>(stage_to_pu.size()) == numStages_,
              "assignment covers ", stage_to_pu.size(), " of ",
              numStages_, " stages");
    const std::vector<double>& times = chunkTable(bucket);

    // Chunk boundaries and times, in stage order - the same chunk walk
    // Schedule::fromAssignment would produce. Latency and gapness are
    // max/min folds identical to Schedule::bottleneckTime / gapness.
    Prediction pred;
    double worst = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    std::fill(usedScratch_.begin(), usedScratch_.end(), 0);

    int first = 0;
    for (int s = 1; s <= numStages_; ++s) {
        if (s != numStages_
            && stage_to_pu[static_cast<std::size_t>(s)]
                == stage_to_pu[static_cast<std::size_t>(first)])
            continue;
        const int pu = stage_to_pu[static_cast<std::size_t>(first)];
        BT_ASSERT(pu >= 0 && pu < numPus_, "stage ", first,
                  " assigned to unknown PU ", pu);
        BT_ASSERT(!usedScratch_[static_cast<std::size_t>(pu)],
                  "PU ", pu, " used by two chunks (violates C2)");
        usedScratch_[static_cast<std::size_t>(pu)] = 1;
        const double t = times[chunkIndex(first, s - 1, pu)];
        worst = std::max(worst, t);
        if (pred.numChunks == 0) {
            lo = t;
            hi = t;
        } else {
            lo = std::min(lo, t);
            hi = std::max(hi, t);
        }
        if (contention_) {
            // A chunk's DRAM draw is its hungriest stage (stages run
            // back-to-back); the schedule's aggregate is the sum over
            // chunks, matching aggregateDemandMilli.
            std::int64_t chunk_demand = 0;
            for (int i = first; i < s; ++i)
                chunk_demand = std::max(
                    chunk_demand, contention_->demandMilli(i, pu));
            pred.demandMilli += chunk_demand;
        }
        ++pred.numChunks;
        first = s;
    }
    pred.latency = worst;
    pred.gapness = hi - lo;
    pred.demandGbps = static_cast<double>(pred.demandMilli) / 1000.0;

    // Predicted per-task energy: each used PU is active for its chunk
    // time (duty-cycled against the bottleneck interval), idle for the
    // rest; unused PUs idle throughout; plus the uncore floor.
    const double interval = pred.latency;
    const int busy_others = pred.numChunks - 1;
    double energy = soc_.basePowerW * interval;
    first = 0;
    for (int s = 1; s <= numStages_; ++s) {
        if (s != numStages_
            && stage_to_pu[static_cast<std::size_t>(s)]
                == stage_to_pu[static_cast<std::size_t>(first)])
            continue;
        const int pu = stage_to_pu[static_cast<std::size_t>(first)];
        const double active = times[chunkIndex(first, s - 1, pu)];
        energy += active * activePowerW_[activeIndex(pu, busy_others)]
            + std::max(0.0, interval - active)
                * idlePowerW_[static_cast<std::size_t>(pu)];
        first = s;
    }
    for (int p = 0; p < numPus_; ++p)
        if (!usedScratch_[static_cast<std::size_t>(p)])
            energy += interval * idlePowerW_[static_cast<std::size_t>(p)];
    pred.energyJ = energy;
    return pred;
}

const Prediction&
ScheduleEvaluator::predict(std::span<const int> stage_to_pu, int bucket)
{
    if (!memo_.keyed()) {
        ++stats_.unkeyed;
        scratch_ = score(stage_to_pu, bucket);
        return scratch_;
    }
    // The packed key uses all 64 bits, so each bucket caches into
    // its own pool (bucket 0 keeps the original hot path).
    SchedulePool& memo = bucket == 0
        ? memo_
        : bucketMemo_.try_emplace(bucket, numStages_, numPus_)
              .first->second;
    const SchedulePool::Probe probe = memo.find(stage_to_pu);
    if (probe.entry != SchedulePool::kAbsent) {
        ++stats_.hits;
        return memo.prediction(probe.entry);
    }
    return memo.insert(probe, stage_to_pu, score(stage_to_pu, bucket));
}

const Prediction&
ScheduleEvaluator::predict(const Schedule& schedule, int bucket)
{
    // toAssignment without the allocation: flatten into the reused
    // scratch vector.
    for (const auto& c : schedule.chunks())
        for (int s = c.firstStage; s <= c.lastStage; ++s)
            assignScratch_[static_cast<std::size_t>(s)] = c.pu;
    return predict(std::span<const int>(assignScratch_), bucket);
}

SchedulePool::SchedulePool(int num_stages, int num_pus)
    : numStages_(num_stages), keyed_(packable(num_stages, num_pus)),
      slots_(1024), shift_(64 - 10)
{
    BT_ASSERT(num_stages > 0, "a pooled schedule needs a stage");
}

std::uint64_t
SchedulePool::hashOf(std::span<const int> stage_to_pu) const
{
    if (keyed_)
        return packAssignment(stage_to_pu); // exact identity
    std::uint64_t h = 0; // FNV-1a style fold
    for (const int pu : stage_to_pu)
        h = (h ^ static_cast<std::uint64_t>(pu)) * 0x100000001b3ull;
    return h;
}

std::size_t
SchedulePool::home(std::uint64_t hash) const
{
    // Fibonacci hashing: the top bits of a golden-ratio multiply.
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ull)
                                    >> shift_);
}

std::span<const int>
SchedulePool::wide(std::size_t i) const
{
    const auto n = static_cast<std::size_t>(numStages_);
    return {wide_.data() + i * n, n};
}

SchedulePool::Probe
SchedulePool::find(std::span<const int> stage_to_pu) const
{
    BT_ASSERT(static_cast<int>(stage_to_pu.size()) == numStages_);
    Probe p;
    p.hash = hashOf(stage_to_pu);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(p.hash);; i = (i + 1) & mask) {
        const Slot& s = slots_[i];
        if (s.entry == kAbsent) {
            p.slot = i;
            return p;
        }
        if (s.hash == p.hash
            && (keyed_
                || std::equal(stage_to_pu.begin(), stage_to_pu.end(),
                              wide(s.entry).begin()))) {
            p.slot = i;
            p.entry = s.entry;
            return p;
        }
    }
}

const Prediction&
SchedulePool::insert(const Probe& probe, std::span<const int> stage_to_pu,
                     const Prediction& pred)
{
    BT_ASSERT(probe.entry == kAbsent, "assignment already pooled");
    BT_ASSERT(preds_.size() < kAbsent, "schedule pool full");
    const auto entry = static_cast<std::uint32_t>(preds_.size());
    preds_.push_back(pred);
    if (keyed_)
        keys_.push_back(probe.hash);
    else
        wide_.insert(wide_.end(), stage_to_pu.begin(), stage_to_pu.end());
    slots_[probe.slot] = Slot{probe.hash, entry};
    if (2 * preds_.size() > slots_.size())
        grow();
    return preds_.back();
}

bool
SchedulePool::add(std::span<const int> stage_to_pu, const Prediction& pred)
{
    const Probe probe = find(stage_to_pu);
    if (probe.entry != kAbsent)
        return false;
    insert(probe, stage_to_pu, pred);
    return true;
}

void
SchedulePool::grow()
{
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
        if (s.entry == kAbsent)
            continue;
        std::size_t i = home(s.hash);
        while (slots_[i].entry != kAbsent)
            i = (i + 1) & mask;
        slots_[i] = s;
    }
}

void
SchedulePool::assignment(std::size_t i, std::span<int> out) const
{
    BT_ASSERT(static_cast<int>(out.size()) == numStages_);
    if (keyed_) {
        unpackAssignment(keys_[i], out);
        return;
    }
    const auto a = wide(i);
    std::copy(a.begin(), a.end(), out.begin());
}

bool
SchedulePool::assignmentLess(std::size_t a, std::size_t b) const
{
    if (keyed_)
        return keys_[a] < keys_[b];
    const auto wa = wide(a);
    const auto wb = wide(b);
    return std::lexicographical_compare(wa.begin(), wa.end(), wb.begin(),
                                        wb.end());
}

} // namespace bt::core
