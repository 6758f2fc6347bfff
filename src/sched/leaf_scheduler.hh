/**
 * @file
 * Interface of the fine-grained (leaf-module) schedulers: RCP (paper
 * Algorithm 1), LPFS (Algorithm 2) and the sequential baseline. A leaf
 * scheduler places each operation of a leaf module into a (timestep,
 * region) slot subject to Multi-SIMD constraints:
 *
 *  - dependences: an op runs strictly after every op it depends on;
 *  - SIMD homogeneity: all ops in one region in one timestep share one
 *    gate type;
 *  - width: at most k regions active per timestep;
 *  - data width: at most d qubits touched per region per timestep.
 *
 * Movement is added afterwards by the CommunicationAnalyzer; schedulers
 * are communication-aware only through their placement heuristics.
 */

#ifndef MSQ_SCHED_LEAF_SCHEDULER_HH
#define MSQ_SCHED_LEAF_SCHEDULER_HH

#include <span>
#include <string>

#include "arch/multi_simd.hh"
#include "arch/schedule.hh"
#include "ir/dag.hh"
#include "ir/module.hh"

namespace msq {

/**
 * How a leaf schedule was obtained. Heuristic schedulers always report
 * Heuristic; the branch-and-bound OptScheduler reports Optimal when it
 * certified a minimum-makespan schedule (annotated makespan equals the
 * static lower bound) and Fallback when it exhausted its node budget
 * and returned the configured heuristic's schedule instead.
 */
enum class ScheduleProvenance : uint8_t {
    Heuristic, ///< produced by a heuristic (RCP/LPFS/sequential)
    Optimal,   ///< proven minimum-makespan (certificate: makespan == LB)
    Fallback,  ///< opt budget exhausted; heuristic schedule returned
};

/** @return "heuristic" / "optimal" / "fallback". */
const char *scheduleProvenanceName(ScheduleProvenance provenance);

/**
 * Per-schedule provenance, search statistics and work counters.
 * Deterministic for a fixed (module, arch, fingerprint) triple — it
 * rides the memoized LeafScheduleResult, so cache hits replay identical
 * numbers.
 */
struct ScheduleAttempt
{
    ScheduleProvenance provenance = ScheduleProvenance::Heuristic;
    uint64_t nodesExpanded = 0;        ///< B&B nodes expanded
    uint64_t prunedByCriticalPath = 0; ///< prunes: CP/height bound
    uint64_t prunedByResource = 0;     ///< prunes: resource bound
    uint64_t prunedByDominance = 0;    ///< prunes: dominance table
    uint64_t candidatesAnnotated = 0;  ///< completed candidates costed
    /** Ready-list entries the RCP/LPFS selection loops examined (the
     * opt tier reports its fallback's); 0 for the sequential baseline. */
    uint64_t readyScanned = 0;
};

/** Abstract fine-grained scheduler. */
class LeafScheduler
{
  public:
    virtual ~LeafScheduler() = default;

    /** Short identifier, e.g. "rcp", "lpfs", "sequential". */
    virtual const char *name() const = 0;

    /**
     * Identity string covering the scheduler kind *and* every option
     * that can change its output, e.g. "lpfs(l=1,simd=1,refill=1)".
     * Used as part of leaf-schedule memoization keys
     * (sched/leaf_cache.hh): two schedulers with equal fingerprints
     * must produce identical schedules for identical inputs.
     */
    virtual std::string fingerprint() const = 0;

    /**
     * Schedule leaf module @p mod onto @p arch.
     * @pre mod.isLeaf() and every op is a primitive gate.
     */
    LeafSchedule schedule(const Module &mod,
                          const MultiSimdArch &arch) const;

    /**
     * Schedule @p mod and report how the schedule was obtained via
     * @p attempt. Heuristic schedulers report Heuristic provenance with
     * zeroed search counters; only schedulers with a non-trivial search
     * (OptScheduler) fill them in. RCP and LPFS count readyScanned.
     */
    LeafSchedule scheduleWithAttempt(const Module &mod,
                                     const MultiSimdArch &arch,
                                     ScheduleAttempt &attempt) const;

    /**
     * As above, on @p dag = DepDag::build(mod) built by the caller, so
     * that a width sweep builds each leaf's DAG once
     * (CoarseScheduler). On a multi-core topology @p home is
     * computeQubitMapping(mod, arch.topology), computed once per leaf
     * by the caller for every width's core-affinity rebind; empty
     * computes it here. The two overloads above run checkInputs, build
     * the DAG and forward here. This overload validates @p arch and
     * the DAG's size but leaves the op walk to its caller: the caller
     * must have run checkInputs(mod, arch), which no width changes.
     */
    LeafSchedule scheduleWithAttempt(const Module &mod, const DepDag &dag,
                                     const MultiSimdArch &arch,
                                     ScheduleAttempt &attempt,
                                     std::span<const unsigned> home = {})
        const;

    /**
     * Width-invariance contract (DESIGN.md §9). On a one-core topology,
     * a coarse width task (scheduleLeafWidth in sched/coarse.hh) for
     * @p mod at any width k >= saturationWidth(mod) returns the same
     * schedule, moves, CommStats, ResourceSummary, bounds and
     * ScheduleAttempt as at k = saturationWidth(mod); only
     * ScheduleBuffer::k differs. CoarseScheduler therefore schedules a
     * leaf once for all of its wider sweep points
     * (tests/test_property.cc checks every scheduler here).
     *
     * The default is the module's qubit count Q (at least 1), and an
     * override may only raise it: the bound profile caps a step at
     * min(k * d, Q), which is Q only from k = Q on. DepDag links
     * consecutive users of a qubit, so ready ops are pairwise
     * qubit-disjoint and a step places at most Q of them. A scheduler
     * whose every active region takes one of them, and which opens a
     * region only when each lower region is active or holds one of
     * its operands, never activates a region >= Q; regions that stay
     * idle at every width leave the state the others read untouched.
     * RCP (preferred region, else the first free one) and the
     * sequential baseline keep the default.
     */
    virtual unsigned saturationWidth(const Module &mod) const;

    /**
     * The preconditions every scheduler shares; panics on violations:
     * a valid @p arch, a leaf @p mod, and ops that are primitive gates
     * with at least one operand, no repeated operand and at most d
     * operands. The op walk reads d but never k, so a width sweep runs
     * it once per leaf.
     */
    static void checkInputs(const Module &mod, const MultiSimdArch &arch);

  protected:
    /**
     * The scheduler itself: inputs are checked and @p attempt is reset
     * to Heuristic before the call. @p home is the qubit-to-core
     * mapping, read only on a multi-core topology (applyCoreAffinity
     * checks its size).
     */
    virtual LeafSchedule scheduleOnDag(const Module &mod,
                                       const DepDag &dag,
                                       const MultiSimdArch &arch,
                                       ScheduleAttempt &attempt,
                                       std::span<const unsigned> home)
        const = 0;
};

/**
 * Number of qubits a set of same-kind ops occupies in a region; used to
 * enforce the d constraint.
 */
inline uint64_t
opQubitCount(const Operation &op)
{
    return op.operands.size();
}

/**
 * The sequential baseline: one operation per timestep, all in region 0.
 * Paper speedups are reported "over sequential execution".
 */
class SequentialScheduler : public LeafScheduler
{
  public:
    const char *name() const override { return "sequential"; }
    std::string fingerprint() const override { return "sequential"; }

  protected:
    LeafSchedule scheduleOnDag(const Module &mod, const DepDag &dag,
                               const MultiSimdArch &arch,
                               ScheduleAttempt &attempt,
                               std::span<const unsigned> home)
        const override;
};

} // namespace msq

#endif // MSQ_SCHED_LEAF_SCHEDULER_HH
