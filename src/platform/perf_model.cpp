#include "platform/perf_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "common/logging.hpp"

namespace bt::platform {

PerfModel::PerfModel(const SocDescription& soc_)
    : desc(soc_), contention_(soc_)
{
    desc.validate();
}

double
PerfModel::computeTime(const WorkProfile& w, const PuModel& p,
                       double freq_ghz) const
{
    return contention_.computeSeconds(w, p, freq_ghz);
}

double
PerfModel::memIntensity(const WorkProfile& w, const PuModel& p) const
{
    return contention_.memIntensity(w, p);
}

double
PerfModel::effectiveFreqGhz(int pu, int busy_others) const
{
    const PuModel& p = desc.pu(pu);
    // Firmware governors react in steps: any concurrent load on another
    // PU class trips the boost/throttle state (consistent with the
    // paper's observation that the effect appears as soon as the system
    // is loaded, Sec. 5.3).
    const double factor = busy_others > 0 ? p.busyFreqFactor : 1.0;
    return p.freqGhz * factor;
}

double
PerfModel::activePowerW(int pu, int busy_others) const
{
    const PuModel& p = desc.pu(pu);
    const double factor = effectiveFreqGhz(pu, busy_others) / p.freqGhz;
    return p.activePowerW * factor * factor;
}

double
PerfModel::systemPowerW(std::uint64_t active_pus) const
{
    const int busy = std::popcount(active_pus);
    double total = desc.basePowerW;
    for (int p = 0; p < desc.numPus(); ++p) {
        if ((active_pus >> p) & 1u)
            total += activePowerW(p, busy - 1);
        else
            total += desc.pu(p).idlePowerW;
    }
    return total;
}

double
PerfModel::timeOf(std::size_t idx, std::span<const Load> active) const
{
    return timeOfImpl(idx, active, {}, 0.0);
}

double
PerfModel::timeOf(std::size_t idx, std::span<const Load> active,
                  std::span<const double> clock_scale) const
{
    return timeOfImpl(idx, active, clock_scale, 0.0);
}

double
PerfModel::timeOf(std::size_t idx, std::span<const Load> active,
                  std::span<const double> clock_scale,
                  double ambient_gbps) const
{
    return timeOfImpl(idx, active, clock_scale, ambient_gbps);
}

double
PerfModel::timeOfImpl(std::size_t idx, std::span<const Load> active,
                      std::span<const double> clock_scale,
                      double ambient_gbps) const
{
    BT_ASSERT(idx < active.size(), "load index out of range");
    BT_ASSERT(ambient_gbps >= 0.0, "ambient demand must be nonnegative");
    const Load& self = active[idx];

    // Which PU classes have at least one active load (ours among them),
    // and how many loads share our own PU (timeslicing).
    std::uint64_t busy = 0;
    int same_pu = 0;
    for (const auto& l : active) {
        BT_ASSERT(l.work != nullptr);
        BT_ASSERT(l.pu >= 0 && l.pu < desc.numPus(), "bad PU ", l.pu);
        busy |= std::uint64_t{1} << l.pu;
        if (l.pu == self.pu)
            ++same_pu;
    }

    // Memory side: demand-proportional DRAM sharing (ContentionModel).
    double demand_total = 0.0;
    for (const auto& l : active) {
        const double demand = contention_.demandGbps(*l.work, desc.pu(l.pu));
        // Other PUs' traffic is partially absorbed by bank-level
        // parallelism; our own demand counts in full.
        demand_total
            += contention_.weightedDemand(demand, l.pu == self.pu);
    }
    // Cross-tenant ambient traffic joins the pool like any foreign
    // PU's demand (adding 0.0 keeps the fold bit-identical).
    demand_total += contention_.weightedDemand(ambient_gbps, false);
    return loadTime(self, same_pu, std::popcount(busy) - 1, demand_total,
                    clock_scale, ambient_gbps);
}

void
PerfModel::timesOf(std::span<const Load> active,
                   std::span<const double> clock_scale,
                   double ambient_gbps, std::span<double> out) const
{
    BT_ASSERT(out.size() == active.size(), "one output per load");
    BT_ASSERT(ambient_gbps >= 0.0, "ambient demand must be nonnegative");

    // Busy classes, loads per class, and each load's demand (parked in
    // out until the folds below have read it).
    std::uint64_t busy = 0;
    std::array<int, SocDescription::kMaxPus> per_pu{};
    for (std::size_t i = 0; i < active.size(); ++i) {
        const Load& l = active[i];
        BT_ASSERT(l.work != nullptr);
        BT_ASSERT(l.pu >= 0 && l.pu < desc.numPus(), "bad PU ", l.pu);
        busy |= std::uint64_t{1} << l.pu;
        ++per_pu[static_cast<std::size_t>(l.pu)];
        out[i] = contention_.demandGbps(*l.work, desc.pu(l.pu));
    }

    // The weighted-demand fold of each busy class, in load order and
    // ending with the ambient term, exactly as timeOf folds it.
    std::array<double, SocDescription::kMaxPus> fold;
    for (std::uint64_t rest = busy; rest != 0; rest &= rest - 1) {
        const int cls = std::countr_zero(rest);
        double total = 0.0;
        for (std::size_t i = 0; i < active.size(); ++i)
            total += contention_.weightedDemand(out[i],
                                                active[i].pu == cls);
        total += contention_.weightedDemand(ambient_gbps, false);
        fold[static_cast<std::size_t>(cls)] = total;
    }

    const int busy_others = std::popcount(busy) - 1;
    for (std::size_t i = 0; i < active.size(); ++i) {
        const auto cls = static_cast<std::size_t>(active[i].pu);
        out[i] = loadTime(active[i], per_pu[cls], busy_others, fold[cls],
                          clock_scale, ambient_gbps);
    }
}

double
PerfModel::loadTime(const Load& self, int same_pu, int busy_others,
                    double demand_total,
                    std::span<const double> clock_scale,
                    double ambient_gbps) const
{
    const PuModel& p = desc.pu(self.pu);
    const bool contended = busy_others > 0 || ambient_gbps > 0.0;

    double freq = effectiveFreqGhz(self.pu, busy_others);
    if (!clock_scale.empty()) {
        BT_ASSERT(clock_scale.size()
                  == static_cast<std::size_t>(desc.numPus()));
        freq *= clock_scale[static_cast<std::size_t>(self.pu)];
    }
    double comp = computeTime(*self.work, p, freq);

    const double llc = contention_.llcFactor(contended);
    const double scale = contention_.bandwidthScale(demand_total);
    const double bw = p.memBwGbps * scale;
    double mem = (self.work->bytes * llc) / (bw * 1e9);

    // Loads time-sharing one PU stretch both components.
    comp *= same_pu;
    mem *= same_pu;

    return std::max(comp, mem) + p.dispatchOverheadUs * 1e-6;
}

double
PerfModel::isolatedTime(const WorkProfile& w, int pu) const
{
    const Load self{&w, pu};
    return timeOf(0, std::span<const Load>(&self, 1));
}

double
PerfModel::interferenceHeavyTime(const WorkProfile& w, int pu) const
{
    return interferenceHeavyTime(w, pu, 0.0);
}

double
PerfModel::interferenceHeavyTime(const WorkProfile& w, int pu,
                                 double ambient_gbps) const
{
    // The profiler's interference-heavy mode: every other PU class runs
    // the same computation while we measure `pu` (paper Sec. 3.2),
    // optionally with cross-tenant ambient bandwidth demand on top.
    std::vector<Load> loads;
    loads.reserve(static_cast<std::size_t>(desc.numPus()));
    std::size_t self_idx = 0;
    for (int i = 0; i < desc.numPus(); ++i) {
        if (i == pu)
            self_idx = loads.size();
        loads.push_back(Load{&w, i});
    }
    return timeOfImpl(self_idx, loads, {}, ambient_gbps);
}

} // namespace bt::platform
