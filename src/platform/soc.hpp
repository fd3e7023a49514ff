/**
 * @file
 * Whole-SoC description: the "target system specification" input of the
 * BetterTogether flow (paper Fig. 2, step 2), including the affinity map
 * and the shared-memory-system parameters the interference model needs.
 */

#ifndef BT_PLATFORM_SOC_HPP
#define BT_PLATFORM_SOC_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "platform/pu.hpp"

namespace bt::platform {

/**
 * Shared memory system of a UMA SoC. All PUs draw from one DRAM pool;
 * llcFactor* scale the DRAM traffic to model a shared last-level cache
 * (present on Jetson, absent on the phones) whose hit rate degrades under
 * contention.
 */
struct MemorySystem
{
    double dramBwGbps = 10.0;
    double llcFactorIsolated = 1.0;  ///< DRAM bytes fraction when alone
    double llcFactorContended = 1.0; ///< ... when other PUs are active

    /**
     * How strongly other PUs' bandwidth demand counts against ours when
     * sharing the controller. 1.0 = ideal proportional sharing; < 1
     * models the slack bank-level parallelism recovers on LPDDR parts.
     */
    double contendedDemandWeight = 0.45;
};

/** Full description of one target device. */
struct SocDescription
{
    std::string name;    ///< "Google Pixel 7a"
    std::string vendor;  ///< "Google (Arm)"
    std::string gpuApi;  ///< "Vulkan" or "CUDA"
    std::vector<PuModel> pus;
    MemorySystem mem;
    double noiseSigma = 0.02;   ///< log-normal measurement noise
    std::uint64_t seed = 1;     ///< base seed for this device's noise

    /** Uncore + DRAM power floor when the SoC is powered on (watts). */
    double basePowerW = 0.5;

    /** Peak whole-SoC power: base + every class active at base clock. */
    double peakPowerW() const;

    /**
     * Most PU classes one SoC may have: the virtual-time runtime tracks
     * its busy classes in one 64-bit mask (bit p = class p).
     */
    static constexpr int kMaxPus = 64;

    /** Number of scheduling classes. */
    int numPus() const { return static_cast<int>(pus.size()); }

    /** Model of class @p pu (bounds-checked). */
    const PuModel& pu(int pu_index) const;

    /** Index of the class labelled @p label, or -1. */
    int findPu(const std::string& label) const;

    /** Index of the first GPU class, or -1. */
    int gpuIndex() const;

    /** Index of the fastest CPU class by peak GFLOP/s, or -1. */
    int bigCpuIndex() const;

    /** Sanity-check invariants (at most kMaxPus classes, positive
     *  rates, unique labels, ...). */
    void validate() const;
};

} // namespace bt::platform

#endif // BT_PLATFORM_SOC_HPP
