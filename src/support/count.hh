/**
 * @file
 * Exact hierarchical counts. Repeat-count products through a call graph
 * outgrow 64 bits on paper-scale programs (SHA-1's Table 1 gate total
 * is about 2^78.5), so gate, invocation and summary counts are held in
 * 128 bits. Past 2^128-1 a Count saturates, and 2^128-1 is sticky under
 * + and *, so whether a count clipped is read from the value itself.
 * Critical paths, bounds and schedule lengths compare against 64-bit
 * makespans and stay saturating uint64_t (support/saturate.hh).
 */

#ifndef MSQ_SUPPORT_COUNT_HH
#define MSQ_SUPPORT_COUNT_HH

#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace msq {

/** A 128-bit count that saturates at 2^128-1 instead of wrapping. */
class Count
{
  public:
    __extension__ typedef unsigned __int128 Rep;

    constexpr Count() = default;
    constexpr Count(uint64_t value) : v(value) {}

    /** 2^128-1: the saturated value. */
    static constexpr Count
    max()
    {
        // Not numeric_limits: strict ISO modes leave it unspecialized
        // for __int128.
        Count c;
        c.v = ~Rep(0);
        return c;
    }

    /** Did this count clip at 2^128-1? */
    constexpr bool saturated() const { return *this == max(); }

    /** The value clamped to 2^64-1, for 64-bit sinks (leaf summaries and
     * cache records are always below 2^64). */
    constexpr uint64_t
    clampU64() const
    {
        return v > std::numeric_limits<uint64_t>::max()
                   ? std::numeric_limits<uint64_t>::max()
                   : static_cast<uint64_t>(v);
    }

    /** The nearest double, for gauges and ratios. */
    double toDouble() const { return static_cast<double>(v); }

    /** Exact decimal digits. */
    std::string
    str() const
    {
        char digits[40]; // 2^128-1 has 39
        char *first = digits + sizeof digits;
        Rep rest = v;
        do {
            *--first = static_cast<char>('0' + rest % 10);
            rest /= 10;
        } while (rest != 0);
        return std::string(first, digits + sizeof digits);
    }

    friend constexpr Count
    operator+(Count a, Count b)
    {
        Count sum;
        if (__builtin_add_overflow(a.v, b.v, &sum.v))
            return max();
        return sum;
    }

    /** Saturating product; a saturated count times 0 is 0. */
    friend constexpr Count
    operator*(Count a, Count b)
    {
        Count product;
        if (__builtin_mul_overflow(a.v, b.v, &product.v))
            return max();
        return product;
    }

    /** a - b for a >= b; callers check the order first. */
    friend constexpr Count
    operator-(Count a, Count b)
    {
        Count diff;
        diff.v = a.v - b.v;
        return diff;
    }

    constexpr Count &operator+=(Count other) { return *this = *this + other; }
    constexpr Count &operator*=(Count other) { return *this = *this * other; }
    constexpr Count &operator++() { return *this += 1; }

    friend constexpr bool operator==(const Count &, const Count &) = default;
    friend constexpr auto operator<=>(const Count &,
                                      const Count &) = default;

  private:
    Rep v = 0;
};

inline std::ostream &
operator<<(std::ostream &os, const Count &count)
{
    return os << count.str();
}

} // namespace msq

#endif // MSQ_SUPPORT_COUNT_HH
