#include "common/rng.hpp"

#include <cmath>

namespace bt {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return splitmix64(a ^ (splitmix64(b) + 0x9e3779b97f4a7c15ull));
}

double
Rng::nextRange(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextGaussian()
{
    // Box-Muller; draw u1 away from zero to keep the log finite.
    double u1;
    do {
        u1 = nextDouble();
    } while (u1 <= 1e-300);
    const double u2 = nextDouble();
    return std::sqrt(-2.0 * std::log(u1))
        * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double
Rng::nextLogNormalFactor(double sigma)
{
    return std::exp(sigma * nextGaussian());
}

} // namespace bt
