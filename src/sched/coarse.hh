/**
 * @file
 * Hierarchical coarse-grained scheduling — paper §4.3, Algorithm 3.
 *
 * Leaf modules are fine-grain scheduled (RCP or LPFS) at several widths
 * between 1 and k, producing *flexible blackbox dimensions* (width,
 * length) per module. Non-leaf modules are then list-scheduled in
 * criticality order: parallelizable blackboxes are packed side-by-side
 * subject to the total-width constraint k, and when packing would exceed
 * k, a width-combination search reshapes the parallel set ("Try all
 * combinations of possible widths ... choose combination with smallest
 * length"). We implement the combination search as a shrink-then-regrow
 * greedy over the monotone width/length trade-off curves, which explores
 * the same space without exponential blowup (see DESIGN.md).
 *
 * Coarse-level costs (paper §4.3): a plain gate has execution cost 1 and
 * movement cost 4 (when communication is modelled); a call costs its
 * blackbox length plus one teleportation cycle of flush overhead per
 * invocation (§3.2), times its repeat count.
 */

#ifndef MSQ_SCHED_COARSE_HH
#define MSQ_SCHED_COARSE_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/bounds.hh"
#include "arch/multi_simd.hh"
#include "ir/dag.hh"
#include "ir/program.hh"
#include "sched/comm.hh"
#include "sched/leaf_cache.hh"
#include "sched/leaf_scheduler.hh"
#include "support/telemetry.hh"

namespace msq {

/** One available shape of a module's schedule. */
struct Blackbox
{
    unsigned width = 1;  ///< SIMD regions occupied
    uint64_t length = 0; ///< cycles
};

/** Scheduling results for one module. */
struct ModuleScheduleInfo
{
    bool analyzed = false; ///< reachable from entry and scheduled
    bool leaf = false;
    /** Available dimensions, strictly increasing width, non-increasing
     * length. */
    std::vector<Blackbox> dims;
    /**
     * The widest width's fine-grained result (leaves only; null for
     * non-leaves): the cached blackbox, shared with the leaf cache.
     * Its summary carries the schedule's movement and its unclamped
     * length; its attempt's provenance is Optimal when the scheduler
     * certified a minimum-makespan schedule at that width (B007 checks
     * the certificate), Fallback when an OptScheduler ran out of
     * budget, Heuristic otherwise; its bounds are computeLeafBounds(mod,
     * arch), since the sweep ends at k.
     */
    std::shared_ptr<const LeafScheduleResult> result;

    /** Shortest available length. */
    uint64_t bestLength() const;

    /** Fastest dimension choice with width <= @p max_width (panics when
     * even width 1 is unavailable). */
    const Blackbox &bestWithin(unsigned max_width) const;
};

/** Whole-program schedule summary. */
struct ProgramSchedule
{
    std::vector<ModuleScheduleInfo> modules; ///< indexed by ModuleId
    uint64_t totalCycles = 0;                ///< entry module best length

    const ModuleScheduleInfo &forModule(ModuleId id) const;
};

/**
 * One leaf width task (DESIGN.md §9): schedule @p mod with @p scheduler
 * on a k = @p w copy of @p arch, annotate it on the full machine under
 * @p mode, and evaluate @p bounds at @p w. The schedule itself is
 * dropped; the result keeps its blackbox. @p dag is DepDag::build(mod);
 * @p home is computeQubitMapping(mod, arch.topology) on a multi-core
 * topology and empty on one core. The caller has run
 * LeafScheduler::checkInputs(mod, arch).
 */
std::shared_ptr<LeafScheduleResult>
scheduleLeafWidth(const LeafScheduler &scheduler, const Module &mod,
                  const DepDag &dag, const LeafBoundProfile &bounds,
                  std::span<const unsigned> home,
                  const MultiSimdArch &arch, CommMode mode, unsigned w);

/** The hierarchical scheduler. */
class CoarseScheduler
{
  public:
    struct Options
    {
        /**
         * Widths at which each module is pre-scheduled. Empty selects
         * powers of two up to k plus k itself (the full 1..k sweep the
         * paper describes is quadratic in k; powers of two preserve the
         * trade-off curve shape at large k, e.g. Fig. 9's k = 128). An
         * explicit sweep must lie in [1, k] and include k.
         */
        std::vector<unsigned> widths;

        /**
         * Scheduling fan-out: (module x width) leaf tasks and the
         * per-module width sweeps run on this many threads (including
         * the caller). 1 is the exact sequential legacy path; 0 selects
         * the hardware concurrency. Results are bit-identical for every
         * value (DESIGN.md §9 determinism contract).
         */
        unsigned numThreads = 1;

        /**
         * Optional leaf-schedule memoization cache. May be shared
         * across schedulers and runs; null disables memoization.
         */
        std::shared_ptr<LeafScheduleCache> leafCache;

        /**
         * Optional telemetry sink (support/telemetry.hh). When set,
         * schedule() records per-leaf and per-sweep counters and
         * distributions (gate counts, cycle lengths, communication
         * totals, cache traffic) into it — always from the
         * single-threaded merge phases, so every recorded value is
         * thread-count-invariant. Null records nothing.
         */
        MetricsRegistry *metrics = nullptr;
    };

    /**
     * @param arch machine model; arch.k bounds total width.
     * @param leaf_scheduler fine-grained scheduler for leaf modules.
     * @param mode communication model applied to leaf schedules and
     *        coarse-level costs.
     */
    CoarseScheduler(const MultiSimdArch &arch,
                    const LeafScheduler &leaf_scheduler, CommMode mode)
        : CoarseScheduler(arch, leaf_scheduler, mode, Options{})
    {}
    CoarseScheduler(const MultiSimdArch &arch,
                    const LeafScheduler &leaf_scheduler, CommMode mode,
                    Options options);

    /** Schedule every module reachable from @p prog's entry. */
    ProgramSchedule schedule(const Program &prog) const;

    /** The width sweep in effect (after defaulting). */
    const std::vector<unsigned> &widthSweep() const { return widths; }

  private:
    MultiSimdArch arch;
    const LeafScheduler *leafScheduler;
    CommMode mode;
    std::vector<unsigned> widths;
    unsigned numThreads;
    std::shared_ptr<LeafScheduleCache> cache;
    MetricsRegistry *metrics;
    /** Scheduler/arch/mode part of memoization keys (width excluded). */
    std::string cacheKeySuffix;

    /** Width-invariant analysis of one leaf, shared by its width tasks
     * (defined in coarse.cc). */
    struct LeafShare;

    /**
     * The cached result under @p key when it may rebind to @p mod; a
     * count mismatch is evicted and counted as a rejection, and returns
     * null like a miss.
     */
    std::shared_ptr<const LeafScheduleResult>
    cachedResult(const Module &mod, const std::string &key) const;

    /**
     * Fine-grain schedule @p mod at width @p w (through the memoization
     * cache when one is attached), on the leaf's shared analysis
     * @p share. Pure function of @p mod and @p w: safe to fan out
     * across threads.
     */
    std::shared_ptr<const LeafScheduleResult>
    leafWidthResult(const Module &mod, unsigned w, LeafShare &share) const;

    /**
     * The result at width @p w of a leaf that saturates below it:
     * @p base (the saturating width's result) itself, filed under
     * @p w's own key when a cache is attached.
     */
    std::shared_ptr<const LeafScheduleResult>
    derivedWidthResult(
        const Module &mod, unsigned w, const LeafShare &share,
        const std::shared_ptr<const LeafScheduleResult> &base) const;

    /**
     * Coarse list-schedule @p mod under width budget @p max_width, on
     * its DAG @p dag with per-op priorities @p priority (weighted
     * heights).
     */
    uint64_t scheduleNonLeaf(const Module &mod, const DepDag &dag,
                             std::span<const uint64_t> priority,
                             const ProgramSchedule &partial,
                             unsigned max_width) const;
};

} // namespace msq

#endif // MSQ_SCHED_COARSE_HH
