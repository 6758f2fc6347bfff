/**
 * @file
 * Schedule-quality / schedule-sanity checker (diagnostic codes
 * B004-B007) built on the static makespan lower bounds of
 * analysis/bounds.hh.
 *
 * A lower bound is a *certificate*: no valid schedule of a module can
 * finish below it. A schedule that does is therefore not merely slow or
 * suboptimal — it is corrupt (scheduler bug, cache aliasing, truncated
 * buffer), and this checker turns that certificate into a novel bug
 * detector the S/C validators cannot replicate (they check invariants
 * of what *is* in the schedule; the bound checks what *must* be):
 *
 *  - B004 a blackbox dimension of the width sweep is shorter than the
 *         lower bound at that width (for a leaf, the composite of its
 *         critical-path, resource and interval bounds; under
 *         CommMode::None a leaf dimension's length is its compute
 *         timestep count, so this is where a too-short leaf schedule
 *         shows);
 *  - B005 the program's total cycle count is below the hierarchically
 *         composed program bound;
 *  - B006 (warning) the repeat algebra saturated at 2^64-1 while
 *         composing bounds — the bounds stay sound but loose; one
 *         warning at each op where a weight or area first clips;
 *  - B007 a leaf whose schedule the scheduler certified as optimal
 *         (ScheduleProvenance::Optimal) does not sit exactly on its
 *         lower bound — a false certificate: either the proof logic or
 *         the bound is broken, never valid output.
 *
 * The same pass computes the per-leaf and program *optimality gaps*
 * (makespan / lower bound >= 1.0), the repo's first quantitative answer
 * to "how far from optimal are RCP and LPFS?" (EXPERIMENTS.md); the
 * msq-verify --bounds flag surfaces them as a JSON gap report.
 */

#ifndef MSQ_VERIFY_BOUND_CHECKER_HH
#define MSQ_VERIFY_BOUND_CHECKER_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/bounds.hh"
#include "arch/multi_simd.hh"
#include "sched/coarse.hh"
#include "support/count.hh"
#include "support/diagnostic.hh"

namespace msq {

/** Aggregate numbers from one checker run (for reporting/tests). */
struct BoundCheckStats
{
    uint64_t leavesChecked = 0; ///< leaf modules with a gap record
    uint64_t dimsChecked = 0;   ///< (module, width) dims compared
};

/** One leaf module's schedule-quality record. */
struct LeafGapRecord
{
    std::string module;       ///< module name
    uint64_t gates = 0;       ///< op count
    uint64_t qubits = 0;      ///< qubit count
    Count invocations;        ///< runs per program execution
    unsigned width = 0;       ///< widest sweep width
    uint64_t makespan = 0;    ///< cycles at the widest width (incl. comm)
    MakespanBounds bounds;    ///< static bounds at the widest width
    uint64_t lowerBound = 0;  ///< bounds.composite()
    double gap = 1.0;         ///< makespan / lowerBound (>= 1.0)
    /** How the widest schedule was obtained; Optimal implies gap 1.0
     * (enforced as B007). */
    ScheduleProvenance provenance = ScheduleProvenance::Heuristic;
};

/** Whole-program schedule-quality report (the --bounds JSON payload). */
struct ProgramGapReport
{
    std::vector<LeafGapRecord> leaves; ///< one per scheduled leaf
    uint64_t programMakespan = 0;      ///< ProgramSchedule::totalCycles
    uint64_t programLowerBound = 0;    ///< hierarchical composite bound
    double programGap = 1.0;           ///< makespan / bound (>= 1.0)
    uint64_t programAreaBound = 0;     ///< MakespanBoundAnalysis::areaBound

    /** Did the bound composition clip at 2^64-1? */
    bool
    saturated() const
    {
        return programAreaBound == std::numeric_limits<uint64_t>::max();
    }
};

/**
 * Check a whole ProgramSchedule against the hierarchical bounds: every
 * blackbox dimension of every analyzed module (B004), and the program
 * total (B005). @p mode must be the communication mode @p psched was
 * produced with (it selects the coarse-level cycle costs).
 *
 * @param report optional gap report to fill (leaves in ModuleId order).
 * @return true when no Error-severity diagnostic was added.
 */
bool checkScheduleBounds(const Program &prog,
                         const ProgramSchedule &psched,
                         const MultiSimdArch &arch, CommMode mode,
                         DiagnosticEngine &diags,
                         ProgramGapReport *report = nullptr,
                         BoundCheckStats *stats = nullptr);

} // namespace msq

#endif // MSQ_VERIFY_BOUND_CHECKER_HH
