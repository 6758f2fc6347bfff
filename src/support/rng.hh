/**
 * @file
 * Deterministic pseudo-random number generation for workload generators and
 * the rotation decomposer. All randomness in the library flows through
 * SplitMix64 so that every experiment is exactly reproducible from its
 * seed — a hard requirement for regenerating the paper's tables/figures.
 */

#ifndef MSQ_SUPPORT_RNG_HH
#define MSQ_SUPPORT_RNG_HH

#include <cstdint>
#include <cstring>

#include "support/hash.hh"

namespace msq {

/**
 * SplitMix64 generator. Tiny state, excellent statistical quality for
 * non-cryptographic use, and trivially seedable from a hash.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state(seed) {}

    /** @return the next 64 pseudo-random bits. */
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** @return a value uniform in [0, bound); bound must be nonzero. */
    uint64_t
    nextBelow(uint64_t bound)
    {
        return next() % bound;
    }

    /** @return a double uniform in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    uint64_t state;
};

/** Stateless 64-bit mix, used to derive per-entity seeds from names/ids. */
constexpr uint64_t
hashMix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a hash of a string, for seeding generators from names. */
inline uint64_t
hashString(const char *s)
{
    return fnv1a64(s, std::strlen(s));
}

} // namespace msq

#endif // MSQ_SUPPORT_RNG_HH
