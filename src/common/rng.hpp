/**
 * @file
 * Deterministic random-number utilities.
 *
 * Every stochastic component of the framework (synthetic inputs, weight
 * initialization, measurement noise) draws from a seeded Rng so that any
 * experiment reproduces byte-identical output. The generator is SplitMix64,
 * which is tiny, fast, and passes BigCrush when used as a 64-bit stream.
 */

#ifndef BT_COMMON_RNG_HPP
#define BT_COMMON_RNG_HPP

#include <cstdint>

#include "common/logging.hpp"

namespace bt {

/**
 * Mix a 64-bit value through the SplitMix64 finalizer. Useful on its own
 * for deriving independent noise streams from composite keys.
 */
std::uint64_t splitmix64(std::uint64_t x);

/** Combine two values into one well-mixed 64-bit key. */
std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b);

/**
 * Seeded pseudo-random generator with the distributions the framework
 * needs: uniform integers/reals, Gaussians, and log-normal noise factors.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(splitmix64(seed ^ kGolden)) {}

    // The three hot draws are defined inline: the annealer's move loop
    // draws several per proposal, mostly with constant bounds that
    // fold once the call is visible.

    /** Next raw 64-bit value. */
    std::uint64_t
    nextU64()
    {
        state += kGolden;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, bound). bound must be nonzero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        BT_ASSERT(bound > 0);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
        std::uint64_t v;
        do {
            v = nextU64();
        } while (v >= limit);
        return v % bound;
    }

    /** Uniform real in [0, 1). */
    double
    nextDouble()
    {
        // 53 significant bits -> uniform double in [0, 1).
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform real in [lo, hi). */
    double nextRange(double lo, double hi);

    /** Standard normal via Box-Muller (no cached spare; stateless). */
    double nextGaussian();

    /**
     * Multiplicative noise factor exp(N(0, sigma)); mean is slightly above
     * one, which matches how timing jitter behaves (mostly small, one-sided
     * tail of slow outliers).
     */
    double nextLogNormalFactor(double sigma);

  private:
    static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    std::uint64_t state;
};

} // namespace bt

#endif // BT_COMMON_RNG_HPP
