#include "platform/soc.hpp"

#include <set>

#include "common/logging.hpp"

namespace bt::platform {

const char*
patternName(Pattern p)
{
    switch (p) {
      case Pattern::Dense: return "dense";
      case Pattern::Sparse: return "sparse";
      case Pattern::Irregular: return "irregular";
      case Pattern::Mixed: return "mixed";
    }
    return "?";
}

WorkProfile
WorkProfile::fusedWith(const WorkProfile& next) const
{
    WorkProfile out;
    out.flops = flops + next.flops;
    out.bytes = bytes + next.bytes;
    // Weighted Amdahl fraction: weight by flops so the dominant stage
    // dictates scalability of the fused chunk.
    const double wa = flops + 1.0;
    const double wb = next.flops + 1.0;
    out.parallelFraction = (parallelFraction * wa
                            + next.parallelFraction * wb) / (wa + wb);
    out.cpuWorkScale
        = (cpuWorkScale * wa + next.cpuWorkScale * wb) / (wa + wb);
    out.pattern = flops >= next.flops ? pattern : next.pattern;
    return out;
}

const PuModel&
SocDescription::pu(int pu_index) const
{
    BT_ASSERT(pu_index >= 0 && pu_index < numPus(),
              "pu index ", pu_index, " out of range on ", name);
    return pus[static_cast<std::size_t>(pu_index)];
}

int
SocDescription::findPu(const std::string& label) const
{
    for (int i = 0; i < numPus(); ++i)
        if (pus[static_cast<std::size_t>(i)].label == label)
            return i;
    return -1;
}

double
SocDescription::peakPowerW() const
{
    double total = basePowerW;
    for (const auto& p : pus)
        total += p.activePowerW;
    return total;
}

int
SocDescription::gpuIndex() const
{
    for (int i = 0; i < numPus(); ++i)
        if (pus[static_cast<std::size_t>(i)].kind == PuKind::Gpu)
            return i;
    return -1;
}

int
SocDescription::bigCpuIndex() const
{
    int best = -1;
    double best_peak = 0.0;
    for (int i = 0; i < numPus(); ++i) {
        const auto& p = pus[static_cast<std::size_t>(i)];
        if (p.kind == PuKind::Cpu && p.peakGflops() > best_peak) {
            best = i;
            best_peak = p.peakGflops();
        }
    }
    return best;
}

void
SocDescription::validate() const
{
    BT_ASSERT(!pus.empty(), "SoC ", name, " has no PUs");
    BT_ASSERT(numPus() <= kMaxPus, "SoC ", name, " has ", numPus(),
              " PU classes; at most ", kMaxPus, " are supported");
    BT_ASSERT(mem.dramBwGbps > 0.0);
    BT_ASSERT(mem.llcFactorIsolated > 0.0
              && mem.llcFactorContended >= mem.llcFactorIsolated,
              "contention must not reduce DRAM traffic");
    std::set<std::string> labels;
    for (const auto& p : pus) {
        BT_ASSERT(!p.label.empty(), "unlabelled PU on ", name);
        BT_ASSERT(labels.insert(p.label).second,
                  "duplicate PU label ", p.label, " on ", name);
        BT_ASSERT(p.cores > 0 && p.freqGhz > 0.0 && p.opsPerCycle > 0.0,
                  "bad rates for PU ", p.label, " on ", name);
        BT_ASSERT(p.memBwGbps > 0.0 && p.busyFreqFactor > 0.0);
        BT_ASSERT(p.activePowerW > 0.0
                      && p.idlePowerW >= 0.0
                      && p.idlePowerW <= p.activePowerW,
                  "inconsistent power model for ", p.label);
        for (double e : p.eff)
            BT_ASSERT(e > 0.0 && e <= 1.0,
                      "efficiency out of (0,1] for ", p.label);
    }
}

} // namespace bt::platform
