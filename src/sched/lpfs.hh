/**
 * @file
 * Longest Path First Scheduling (LPFS) — paper §4.2, Algorithm 2.
 *
 * Many quantum benchmarks are mostly serial: critical-path speedup is only
 * ~1.5x, but long single-qubit chains (e.g. decomposed rotations) offer a
 * locality opportunity. LPFS dedicates l of the k SIMD regions to the l
 * longest paths of the dependence DAG and pins those paths in place, so
 * path qubits rarely move. Remaining regions execute operations from a
 * free list, grouped by type for SIMD data parallelism.
 *
 * Options (paper runs l = 1 with both enabled):
 *  - SIMD: a path region may also execute free-list ops of the same type
 *    as its path op, and may execute arbitrary free-list ops (one type)
 *    in timesteps where its path op is stalled on dependences;
 *  - Refill: when a path is exhausted, a new longest path is extracted
 *    from the currently-ready frontier and assigned to the idle region.
 */

#ifndef MSQ_SCHED_LPFS_HH
#define MSQ_SCHED_LPFS_HH

#include "sched/leaf_scheduler.hh"

namespace msq {

/** The LPFS fine-grained scheduler. */
class LpfsScheduler : public LeafScheduler
{
  public:
    struct Options
    {
        unsigned l = 1;    ///< regions dedicated to longest paths
                           ///< (clamped to k at schedule time)
        bool simd = true;  ///< opportunistic same-type / stall filling
        bool refill = true; ///< re-extract paths when one completes
    };

    LpfsScheduler() : LpfsScheduler(Options{}) {}
    explicit LpfsScheduler(Options options) : options(options) {}

    const char *name() const override { return "lpfs"; }
    std::string fingerprint() const override;

    /**
     * max(Q, l) with SIMD filling: a stalled or empty path region then
     * takes free ops like any other region, so only the l path regions
     * themselves (fixed once k >= l) may sit above Q. l + Q without
     * it: idle path regions can leave up to Q free regions above them
     * working.
     */
    unsigned saturationWidth(const Module &mod) const override;

  protected:
    LeafSchedule scheduleOnDag(const Module &mod, const DepDag &dag,
                               const MultiSimdArch &arch,
                               ScheduleAttempt &attempt,
                               std::span<const unsigned> home)
        const override;

  private:
    Options options;
};

} // namespace msq

#endif // MSQ_SCHED_LPFS_HH
