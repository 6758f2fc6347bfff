/**
 * @file
 * Memoization cache for leaf-module scheduling results (DESIGN.md §9).
 *
 * The hierarchical scheduler (sched/coarse.hh) fine-grain schedules
 * every leaf module at several sweep widths, and the same leaf recurs
 * across runs: rescheduling sweeps, Toolflow runs sharing one cache,
 * and msq-served requests replaying a persisted cache. Re-running
 * RCP/LPFS plus communication annotation for each recurrence is pure
 * waste, so results are shared through this cache. Within one program
 * structurally identical leaves are rare: the approximation sequences
 * of Shor's outlined rotation leaves are angle-seeded, so its 128
 * leaves have 128 distinct structural hashes (DESIGN.md §9).
 *
 * An entry is the leaf's blackbox at one width, as the paper's coarse
 * scheduler sees it: its resource summary (whose serialCycles is the
 * blackbox length, and the one tally of its movement), search
 * provenance and lower bounds. It holds no schedule buffer — the
 * coarse merge, msq-served and the estimate read none — so an entry is
 * a few hundred bytes whatever the leaf's size. The ProgramSchedule
 * points at each leaf's widest result (ModuleScheduleInfo::result).
 *
 * The key captures everything the result depends on:
 *   - the module's structural hash (Module::structuralHash(), which
 *     excludes names and angles) plus its op/qubit counts as cheap
 *     collision guards;
 *   - the leaf scheduler's identity and options (LeafScheduler::
 *     fingerprint());
 *   - the architecture (k is the sweep width; d, local-memory capacity
 *     and EPR bandwidth from the machine model) and the communication
 *     mode.
 *
 * Values are shared via shared_ptr<const LeafScheduleResult>, so a hit
 * costs one refcount bump. The cache is
 * thread-safe and may be shared across CoarseScheduler / Toolflow runs
 * (keys are self-contained; nothing run-specific leaks in).
 *
 * Determinism contract: a lookup can only ever return what a miss would
 * have computed — schedulers are deterministic pure functions of
 * (module structure, arch, options) — so cache-on and cache-off runs
 * produce bit-identical ProgramSchedules (tests/test_determinism.cc).
 */

#ifndef MSQ_SCHED_LEAF_CACHE_HH
#define MSQ_SCHED_LEAF_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/bounds.hh"
#include "analysis/schedule_summary.hh"
#include "arch/schedule.hh"
#include "sched/comm.hh"
#include "sched/leaf_scheduler.hh"
#include "support/diagnostic.hh"

namespace msq {

/** The cached outcome of scheduling one leaf module at one width: its
 * blackbox, not its schedule. */
struct LeafScheduleResult
{
    /**
     * Always zero in results the library builds: `summary` is the one
     * tally of the leaf's movement. Only perfbench's trace replica of
     * the toolflow (perfbench/common.cc) still fills it, and .msqc
     * stores none; the field leaves with that replica.
     */
    CommStats stats;

    /**
     * How the schedule was obtained (provenance) plus the scheduler's
     * search statistics (sched/leaf_scheduler.hh). Deterministic for
     * the cache key — heuristics always report Heuristic with zeroed
     * counters; OptScheduler's node-budgeted search reports identical
     * numbers on every recomputation — so a hit replays exactly what a
     * miss would have computed.
     */
    ScheduleAttempt attempt;

    /**
     * The annotated schedule's compact resource footprint
     * (analysis/schedule_summary.hh), folded in the walk that emits its
     * moves: serialCycles is the blackbox length, the move counters are
     * its movement, and it is the unit the paper-scale estimate
     * composes through the repeat algebra. Like `bounds`, a pure
     * function of what the cache key captures, so a hit never re-folds.
     */
    ResourceSummary summary;

    /**
     * Static makespan lower bounds at this schedule's width
     * (analysis/bounds.hh). Pure function of the module's structure and
     * the arch — exactly what the cache key captures — so bounds are
     * memoized with the summary and a cache hit never recomputes them.
     */
    MakespanBounds bounds;

    /**
     * Always null in results the library builds: no library path keeps
     * a leaf's schedule past its width task, and .msqc stores none.
     * Only perfbench's trace replica of the toolflow
     * (perfbench/common.cc) still fills it; the field leaves with that
     * replica.
     */
    std::shared_ptr<const ScheduleBuffer> schedule;

    /**
     * Op/qubit counts of the module this result was computed from —
     * the rebind-time collision guard for cross-process reuse. For
     * in-process entries these trivially match the requesting module
     * (the key embeds them); for entries loaded from disk they are an
     * independent copy carried in the entry payload, so a forged or
     * collided key can never silently rebind a wrong result
     * (DiagCode::CacheRebindRejected). A 0/0 result belongs to an
     * empty module and rebinds to nothing else.
     */
    uint64_t opCount = 0;
    uint64_t qubitCount = 0;

    /** @return whether this result may be rebound to @p ops/@p qubits. */
    bool
    matchesModule(uint64_t ops, uint64_t qubits) const
    {
        return opCount == ops && qubitCount == qubits;
    }
};

/// @name Memoization-key construction
/// Shared by every cache client (CoarseScheduler, the resource
/// estimator) so independently built keys for the same (module,
/// scheduler, arch, mode, width) always collide — which is what lets
/// the estimator reuse schedules the scheduler already computed.
/// @{

/**
 * The width-independent part of a memoization key: the leaf scheduler's
 * identity (@p scheduler_fingerprint, LeafScheduler::fingerprint()) plus
 * every architecture/mode parameter the result depends on.
 */
std::string leafScheduleKeySuffix(const std::string &scheduler_fingerprint,
                                  const MultiSimdArch &arch,
                                  CommMode mode);

/**
 * The module part of a memoization key: "hash|ops|qubits" from
 * Module::structuralHash() and the module's counts. Hashing is the
 * costly part of a key, so a width sweep computes this once per leaf.
 */
std::string leafScheduleKeyPrefix(const Module &mod);

/** The prefix of a module with @p structural_hash, @p ops and
 * @p qubits: the hash as 16 zero-padded hex digits, the counts in
 * decimal. */
std::string leafScheduleKeyPrefix(uint64_t structural_hash, uint64_t ops,
                                  uint64_t qubits);

/**
 * The full memoization key of scheduling the module whose
 * leafScheduleKeyPrefix is @p prefix at @p width under the
 * configuration captured by @p suffix (leafScheduleKeySuffix).
 */
std::string leafScheduleKey(const std::string &prefix, unsigned width,
                            const std::string &suffix);

/** The full memoization key of scheduling @p mod at @p width. */
std::string leafScheduleKey(const Module &mod, unsigned width,
                            const std::string &suffix);

/// @}

/** Thread-safe (structural hash, scheduler, arch, width) -> result map. */
class LeafScheduleCache
{
  public:
    /**
     * @return the cached result for @p key, or nullptr on a miss.
     * Counts toward hits()/misses().
     */
    std::shared_ptr<const LeafScheduleResult>
    lookup(const std::string &key);

    /**
     * Publish @p result under @p key. On a concurrent double-compute
     * the first insertion wins and is returned; both computations are
     * identical by the determinism contract, so either is correct. The
     * losing thread's earlier miss is reclassified as a hit, so
     * hits()/misses() totals match the sequential run for any thread
     * count (one miss per distinct key, hits for every other access) —
     * which is what makes the telemetry cache counters part of the
     * determinism contract.
     */
    std::shared_ptr<const LeafScheduleResult>
    insert(const std::string &key,
           std::shared_ptr<const LeafScheduleResult> result);

    /**
     * Publish an entry deserialized from disk. Counts toward loads(),
     * never misses() — preloading is not a compute, so the hit/miss
     * tallies of a warm-started process stay comparable with a cold
     * one (one hit per access, zero misses when fully warm). First
     * insertion wins, exactly like insert(), but a losing load
     * reclassifies nothing: no lookup preceded it.
     * @return false when @p key was already present (entry dropped).
     */
    bool insertLoaded(const std::string &key,
                      std::shared_ptr<const LeafScheduleResult> result);

    /**
     * Drop the entry under @p key (used to evict a poisoned disk entry
     * rejected by the rebind guard, so the recompute's insert() wins).
     * Counters are untouched. @return whether an entry was removed.
     */
    bool remove(const std::string &key);

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

    /** Entries published via insertLoaded() (disk preloads). */
    uint64_t loads() const { return loads_.load(); }

    /** Entries refused at rebind time by the collision guard. */
    uint64_t rejections() const { return rejections_.load(); }

    /** Count one rebind-guard refusal (sched/coarse.cc). */
    void
    countRejection()
    {
        rejections_.fetch_add(1, std::memory_order_relaxed);
    }

    /** hits / (hits + misses), or 0 when never queried. */
    double hitRate() const;

    /** Number of distinct entries. */
    size_t size() const;

    /**
     * Key-sorted copy of every entry (value pointers shared). The unit
     * saveTo() serializes; sorted so the file bytes are deterministic
     * for a given cache content.
     */
    std::vector<std::pair<std::string,
                          std::shared_ptr<const LeafScheduleResult>>>
    snapshotEntries() const;

    /**
     * Serialize every entry to @p path in the versioned binary format
     * of sched/cache_io.hh (written atomically: temp file + rename).
     * @return the number of entries written, or SIZE_MAX on I/O error
     * (reported through @p diags as a warning when non-null).
     */
    size_t saveTo(const std::string &path,
                  DiagnosticEngine *diags = nullptr) const;

    /**
     * Deserialize @p path and publish every valid entry via
     * insertLoaded(). Corrupt, truncated, or mismatched files/entries
     * are reported through @p diags (stable codes P001-P005) and
     * skipped — never a crash, never a silently wrong schedule.
     * @return the number of entries loaded (0 on a rejected file).
     */
    size_t loadFrom(const std::string &path,
                    DiagnosticEngine *diags = nullptr);

  private:
    mutable std::mutex mutex;
    std::unordered_map<std::string,
                       std::shared_ptr<const LeafScheduleResult>>
        entries;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> loads_{0};
    std::atomic<uint64_t> rejections_{0};
};

} // namespace msq

#endif // MSQ_SCHED_LEAF_CACHE_HH
