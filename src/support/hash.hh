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

/** Running FNV-1a hash over u64 values, each folded in as its eight
 * little-endian bytes. */
struct Fnv1aFold
{
    uint64_t hash = fnv1aBasis;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            hash = (hash ^ static_cast<uint8_t>(v >> (8 * i))) * fnv1aPrime;
    }
};

} // namespace msq

#endif // MSQ_SUPPORT_HASH_HH
