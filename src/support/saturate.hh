/**
 * @file
 * Saturating 64-bit arithmetic for cycle lengths: critical paths, bounds
 * and schedule lengths saturate at UINT64_MAX instead of wrapping, so a
 * clipped length reads as 2^64-1. Counts use support/count.hh.
 */

#ifndef MSQ_SUPPORT_SATURATE_HH
#define MSQ_SUPPORT_SATURATE_HH

#include <cstdint>
#include <limits>

namespace msq {

/** @return a + b, saturating at UINT64_MAX. */
constexpr uint64_t
satAdd(uint64_t a, uint64_t b)
{
    uint64_t sum = a + b;
    return sum < a ? std::numeric_limits<uint64_t>::max() : sum;
}

/** @return a * b, saturating at UINT64_MAX. */
constexpr uint64_t
satMul(uint64_t a, uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a > std::numeric_limits<uint64_t>::max() / b)
        return std::numeric_limits<uint64_t>::max();
    return a * b;
}

/** @return ceil(a / b), saturating; b == 0 yields 0 (empty workload). */
constexpr uint64_t
satCeilDiv(uint64_t a, uint64_t b)
{
    if (b == 0)
        return 0;
    return a / b + (a % b != 0 ? 1 : 0);
}

} // namespace msq

#endif // MSQ_SUPPORT_SATURATE_HH
