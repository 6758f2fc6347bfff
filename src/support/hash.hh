/**
 * @file
 * The one FNV-1a 64-bit hash of the library: a byte hash (the .msqc
 * entry checksum, name-derived seeds) and a fold of u64 values as their
 * eight little-endian bytes (Module::structuralHash, the daemon's
 * schedule-identity hash). Both are host-independent, so hashes are
 * stable across machines and may be pinned by tests.
 */

#ifndef MSQ_SUPPORT_HASH_HH
#define MSQ_SUPPORT_HASH_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace msq {

/** FNV-1a 64-bit offset basis. */
constexpr uint64_t fnv1aBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit prime. */
constexpr uint64_t fnv1aPrime = 0x100000001b3ull;

/** FNV-1a 64-bit hash of @p size bytes at @p data. */
inline uint64_t
fnv1a64(const void *data, size_t size)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t hash = fnv1aBasis;
    for (size_t i = 0; i < size; ++i)
        hash = (hash ^ bytes[i]) * fnv1aPrime;
    return hash;
}

/** fnv1aPrimePowers[j] = fnv1aPrime^j mod 2^64, for j in [0, 8]. */
inline constexpr auto fnv1aPrimePowers = [] {
    std::array<uint64_t, 9> powers{};
    powers[0] = 1;
    for (size_t j = 1; j < powers.size(); ++j)
        powers[j] = powers[j - 1] * fnv1aPrime;
    return powers;
}();

/** Running FNV-1a hash over u64 values, each folded in as its eight
 * little-endian bytes. */
struct Fnv1aFold
{
    uint64_t hash = fnv1aBasis;

    void
    u64(uint64_t v)
    {
        // Folding a zero byte is (hash ^ 0) * prime, so the last nonzero
        // byte and the zero bytes above it fold in one multiply by
        // prime^(9 - bytes); a zero value counts as one byte, 0 itself.
        const int bytes = (71 - std::countl_zero(v | 1)) / 8;
        for (int i = 1; i < bytes; ++i, v >>= 8)
            hash = (hash ^ (v & 0xff)) * fnv1aPrime;
        hash = (hash ^ v) * fnv1aPrimePowers[9 - bytes];
    }
};

} // namespace msq

#endif // MSQ_SUPPORT_HASH_HH
