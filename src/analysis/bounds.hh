/**
 * @file
 * Static makespan lower bounds (DESIGN.md §12).
 *
 * The paper evaluates RCP against LPFS but never against *optimal*; this
 * analysis computes, per module, a certified lower bound on the makespan
 * of ANY valid schedule, so schedule quality can be stated as an
 * optimality gap (makespan / lower bound >= 1) and a schedule shorter
 * than its bound can be rejected as corrupt (verify/bound_checker.hh,
 * diagnostic codes B001-B006).
 *
 * Three bound families are computed for leaf modules, all in *compute
 * timesteps* (every valid schedule's cycle count, with or without
 * movement phases, is >= its compute-timestep count):
 *
 *  - critical path: ops on a dependence chain occupy distinct timesteps
 *    (no-cloning serialization, ir/dag.hh), so the longest chain bounds
 *    the step count;
 *  - resource: one timestep touches at most min(k*d, numQubits) qubit
 *    operands (k regions of d operands each — validator invariant S006 —
 *    and no qubit twice per step — S007), so total operand touches
 *    divided by that capacity bounds the step count;
 *  - interval (Fernandez-style, cf. SNIPPETS.md snippet 2): every op
 *    must execute inside its [earliest-start, latest-finish] window
 *    derived from ASAP/ALAP levels at the critical-path length; if the
 *    ops confined to some window demand more step-capacity than the
 *    window holds, the whole schedule must stretch by the excess. The
 *    window pairs examined are endpoint-sampled (soundness does not
 *    depend on which intervals are examined, only tightness does).
 *
 * Leaf bounds deliberately charge no teleport cycles: the communication
 * model masks any teleport whose qubit was last touched >= 4 steps ago
 * (sched/comm.cc), and first fetches are always masked, so there exist
 * leaves whose optimal schedules pay zero movement cycles; a bound that
 * charged them would not be a bound. Teleport/move cycles enter where
 * the cost model charges them deterministically: the hierarchical
 * composition prices non-leaf gates at MultiSimdArch::coarseGateCost
 * (1 or 1+4 cycles) and calls at repeat * (callee bound +
 * MultiSimdArch::callOverhead) — the same per-op cycle costs the coarse
 * scheduler itself uses, composed through the repeat algebra in
 * O(distinct modules). Bounds are cycle lengths and saturate at 2^64-1.
 */

#ifndef MSQ_ANALYSIS_BOUNDS_HH
#define MSQ_ANALYSIS_BOUNDS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/multi_simd.hh"
#include "ir/program.hh"
#include "support/diagnostic.hh"

namespace msq {

/** Certified lower bounds on one module's schedule makespan (cycles). */
struct MakespanBounds
{
    uint64_t criticalPath = 0; ///< longest weighted dependence chain
    uint64_t resource = 0;     ///< work / per-step machine capacity
    uint64_t interval = 0;     ///< Fernandez window bound (leaves only)

    /** The strongest (largest) of the families — still a lower bound. */
    uint64_t
    composite() const
    {
        return std::max(criticalPath, std::max(resource, interval));
    }
};

/**
 * Schedule-quality ratio @p makespan / @p lower_bound: >= 1.0 for any
 * correct schedule, 1.0 when both are zero (an empty module is
 * trivially optimal) and infinite for a nonzero makespan over a zero
 * bound (jsonNumber prints that as 0).
 */
double optimalityGap(uint64_t makespan, uint64_t lower_bound);

class DepDag;

/**
 * The width-invariant part of a leaf's bounds: everything
 * computeLeafBounds derives from the module alone, so that a width
 * sweep profiles each leaf once and evaluates the profile per sweep
 * point (DESIGN.md §12). Holds the critical path, the operand-touch
 * total, the qubit count and the interval bound's candidate windows,
 * each reduced to its confined load and its span. Immutable once
 * built, so one profile may be evaluated from many threads at once.
 */
class LeafBoundProfile
{
  public:
    /**
     * Profile leaf @p mod from its dependence DAG @p dag
     * (DepDag::build(mod)), at unit op weights.
     */
    LeafBoundProfile(const Module &mod, const DepDag &dag);

    /**
     * Lower-bound the compute-timestep count of any valid schedule of
     * the profiled leaf on @p arch: derives the per-step touch capacity
     * and sweeps the windows against it, O(windows) with at most 64x64
     * windows.
     */
    MakespanBounds evaluate(const MultiSimdArch &arch) const;

  private:
    /** One candidate window [a, b) of the interval bound. */
    struct Window
    {
        uint64_t load; ///< operand touches of the ops confined to it
        uint64_t span; ///< b - a steps
    };

    uint64_t criticalPath = 0;
    uint64_t touches = 0;
    uint64_t numQubits = 0;
    /** Only windows whose load exceeds their span: with capacity >= 1
     * per step no other window can stretch the schedule. */
    std::vector<Window> windows;
};

/**
 * Lower-bound the compute-timestep count of any valid schedule of leaf
 * @p mod on @p arch (arch.k is the width budget; pass a width-clamped
 * copy to bound narrower sweep points). Profiles @p mod and evaluates
 * the profile once; callers bounding several widths of one leaf should
 * keep a LeafBoundProfile instead.
 */
MakespanBounds computeLeafBounds(const Module &mod,
                                 const MultiSimdArch &arch);

/**
 * Hierarchical (whole-program) makespan lower bounds: leaf bounds
 * composed bottom-up through the call graph with the coarse scheduler's
 * own per-op cycle costs, so every module's bound certifiably
 * under-approximates the CoarseScheduler's blackbox lengths for the
 * same (arch, mode).
 */
class MakespanBoundAnalysis
{
  public:
    /** Produces the full-width bounds of one leaf module (typically the
     * bounds a compile already memoized with its widest schedule). */
    using LeafBoundsFn =
        std::function<MakespanBounds(const Module &, ModuleId)>;

    /**
     * Analyze all modules reachable from @p prog's entry.
     * @param mode communication mode the schedule under test was costed
     *        with (selects the coarse-level gate/call cycle costs).
     * @param diags optional sink for B006 repeat-overflow warnings: one,
     *        with its source line, at each op where a critical-path
     *        weight or the area first clips at 2^64-1.
     * @param leaf_bounds called once per reachable leaf module; empty
     *        derives them from scratch with computeLeafBounds(mod,
     *        arch). Checkers keep the default so that a schedule is
     *        held against a bound computed independently of it.
     */
    MakespanBoundAnalysis(const Program &prog, const MultiSimdArch &arch,
                          CommMode mode,
                          DiagnosticEngine *diags = nullptr,
                          const LeafBoundsFn &leaf_bounds = {});

    /** Bounds of one invocation of module @p id (at full width k). */
    const MakespanBounds &bounds(ModuleId id) const;

    /** Composite lower bound of module @p id (at full width k). */
    uint64_t lowerBound(ModuleId id) const { return bounds(id).composite(); }

    /** Composite lower bound of the entry module. */
    uint64_t programLowerBound() const;

    /**
     * Lower bound of module @p id when restricted to @p width regions
     * (bounds every blackbox dimension of the width sweep: the bound is
     * non-increasing in width, the dims curve is non-increasing by the
     * monotone clamp, and each raw length respects its width's bound).
     */
    uint64_t lowerBoundAt(ModuleId id, unsigned width) const;

    /**
     * Region-cycle area lower bound of module @p id: any schedule of
     * the module occupying w regions for len cycles has w * len >= this
     * (the numerator of the width-parametric resource bound).
     */
    uint64_t areaBound(ModuleId id) const;

    /** Did the program's bound clip at 2^64-1? A clipped length or
     * area reads 2^64-1 and stays there in every caller, and a module's
     * area is at least its composite bound, so the entry's area tells. */
    bool saturated() const;

  private:
    const Program *prog;
    MultiSimdArch arch;
    CommMode mode;
    std::vector<MakespanBounds> bounds_; ///< indexed by ModuleId
    std::vector<uint64_t> areas_;        ///< indexed by ModuleId
};

} // namespace msq

#endif // MSQ_ANALYSIS_BOUNDS_HH
