/**
 * @file
 * Versioned binary (de)serialization for the persistent leaf-schedule
 * cache (DESIGN.md §15). This is what lets a long-running `msq-served`
 * daemon amortize leaf scheduling across process restarts. An entry is
 * the leaf's blackbox at one width (sched/leaf_cache.hh): a fixed
 * record of integers plus two short fingerprints, and no schedule — the
 * consumers of a cached result never read one.
 *
 * File layout (all integers little-endian regardless of host, written
 * byte by byte — never memcpy'd structs, so the format is identical on
 * any architecture and any compiler padding scheme):
 *
 *   header:  magic "MSQC" | u32 version | u32 endianTag (0x01020304)
 *            | u64 entryCount
 *   entry:   u32 keyLen | key bytes
 *            | u64 payloadLen | u64 fnv1a(payload) | payload bytes
 *   payload: u64 opCount | u64 qubitCount
 *            | u32 fpLen | fingerprint bytes            (collision guard)
 *            | u32 archFpLen | arch fingerprint bytes   (topology
 *              guard, MultiSimdArch::fingerprint())
 *            | ScheduleAttempt (u8 provenance + 6 u64)
 *            | ResourceSummary (15 u64 in ResourceSummary::members()
 *              order | u64 bucket count, always 9 | 9 u64 buckets;
 *              a leaf's counts are below 2^64)
 *            | MakespanBounds (3 u64)
 *
 * One field list, transfer() in cache_io.cc, drives both the writer and
 * the reader, so the two cannot disagree on the layout.
 *
 * Load-time validation is layered — every rejection is a stable P-code
 * diagnostic (support/diagnostic.hh) and a skipped file or entry, never
 * a crash and never a silently wrong result:
 *   P001/P002  bad magic / unsupported version (whole file rejected)
 *   P003       truncation anywhere (file rejected from that point)
 *   P004       checksum mismatch, or a payload that does not decode:
 *              an unknown provenance, a bucket count other than 9 or
 *              bytes past the bounds (entry skipped)
 *   P005       payload opCount/qubitCount/fingerprint disagree with the
 *              entry's own key (entry skipped)
 *   P007       (warning) the stored architecture fingerprint
 *              disagrees with the entry's key — a file saved under a
 *              different topology (entry skipped)
 * Files of any other version are rejected with P002 and load nothing,
 * so the engine cold-starts.
 * A fourth layer (P006) lives at rebind time in sched/coarse.cc: even an
 * internally consistent entry is refused when the requesting module's
 * op/qubit counts disagree with the stored guard fields.
 */

#ifndef MSQ_SCHED_CACHE_IO_HH
#define MSQ_SCHED_CACHE_IO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/leaf_cache.hh"
#include "support/diagnostic.hh"
#include "support/hash.hh"

namespace msq {

/// @name Format constants
/// @{

/** First four file bytes. */
extern const char cacheFileMagic[4];

/**
 * Current format version. Bump it on any layout change, and on any
 * change to what a stored field means, such as the leaf-bound formula:
 * msq-served answers lower_bound from the stored MakespanBounds, so a
 * stale file would otherwise serve stale bounds.
 */
constexpr uint32_t cacheFileVersion = 6;

/** Oldest format version loadFrom still accepts. */
constexpr uint32_t cacheFileMinVersion = 6;

/** Byte-order canary, always written little-endian: reads back as
 * 0x01020304 iff the decoder honours the format's endianness. */
constexpr uint32_t cacheFileEndianTag = 0x01020304;

/// @}

/// @name Single-entry (de)serialization
/// The building blocks of saveTo/loadFrom, exposed for tests and for
/// byte-identity checks (serialize is deterministic: same result, same
/// bytes).
/// @{

/** Append @p result's payload encoding (everything after the checksum)
 * to @p out. @p fingerprint is the scheduler fingerprint stored as the
 * cross-process collision guard; @p arch_fingerprint is the machine's
 * MultiSimdArch::fingerprint() (the topology guard). */
void serializeLeafResult(const LeafScheduleResult &result,
                         const std::string &fingerprint,
                         const std::string &arch_fingerprint,
                         std::vector<uint8_t> &out);

/**
 * Decode one payload produced by serializeLeafResult.
 * @param fingerprint receives the stored scheduler fingerprint.
 * @param arch_fingerprint receives the stored arch fingerprint.
 * @return the decoded result, or nullptr when the payload is truncated,
 *         carries trailing bytes or an out-of-range enum or length (the
 *         caller reports P004; this function never throws on bad
 *         input).
 */
std::shared_ptr<LeafScheduleResult>
deserializeLeafResult(const uint8_t *data, size_t size,
                      std::string &fingerprint,
                      std::string &arch_fingerprint);

/// @}

} // namespace msq

#endif // MSQ_SCHED_CACHE_IO_HH
