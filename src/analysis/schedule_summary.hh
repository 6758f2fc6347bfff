/**
 * @file
 * Schedule-summary static analysis: paper-scale resource estimation in
 * O(distinct leaves) memory (DESIGN.md §13).
 *
 * The paper reports makespan, speedup and communication numbers at true
 * benchmark parameters (10^7..10^12 gates) that no materialized program
 * schedule can ever hold. This analysis gets the same numbers exactly,
 * without unrolling anything: each distinct leaf schedule is reduced
 * once to a compact ResourceSummary (by CommunicationAnalyzer::annotate
 * in the same walk that emits its moves; summarizeLeafSchedule is the
 * independent reference fold), and summaries compose bottom-up through the
 * coarse scheduler's own repeat-count algebra (ScheduleSummaryAnalysis)
 * with ResourceSummary::add, the one field-driven compose step.
 *
 * The composed numbers are *exact*, not approximate: serialCycles is the
 * cost of sequential composition under the coarse cost model
 * (MultiSimdArch::coarseGateCost / callOverhead — the same per-op costs
 * the CoarseScheduler charges), gateOps reproduces ResourceEstimator's
 * totals, and every movement counter equals what a full unrolled
 * annotated schedule would sum to. verify/estimate_checker.hh turns that
 * claim into a machine-checked theorem (diagnostic codes E001-E006): on
 * programs small enough to materialize, the composition must match the
 * independently computed ground truth field-for-field.
 *
 * Saturation contract: the additive counters are 128-bit Counts, so
 * paper-scale totals stay exact. A counter that would pass 2^128-1
 * sticks there, and every dependent sum and product sticks with it, so
 * saturated() is read from the values (B006 interplay; the checker
 * downgrades exactness comparisons of a saturated summary to E006
 * warnings because equality of two clipped values proves nothing).
 */

#ifndef MSQ_ANALYSIS_SCHEDULE_SUMMARY_HH
#define MSQ_ANALYSIS_SCHEDULE_SUMMARY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "arch/multi_simd.hh"
#include "arch/schedule.hh"
#include "ir/program.hh"
#include "support/count.hh"
#include "support/diagnostic.hh"

namespace msq {

/**
 * Compact resource footprint of one execution of one module (a single
 * invocation), either folded from a materialized leaf schedule or
 * composed from callee summaries. The additive counters are Counts; the
 * peaks compose by max and are bounded by leaf values.
 */
struct ResourceSummary
{
    /** Total gate operations (== ResourceEstimator::totalGates). */
    Count gateOps;

    /**
     * Cycles of one sequential execution: for a leaf, the annotated
     * schedule's totalCycles under the architecture's EPR bandwidth;
     * composed, every gate at coarseGateCost and every call at
     * repeat * (callee.serialCycles + callOverhead). This is the
     * exactly-composable cycle metric; the *parallel* makespan comes
     * from the CoarseScheduler (also O(distinct modules)) and is
     * reported next to the summary, never derived from it.
     */
    Count serialCycles;

    /**
     * The portion of serialCycles spent on movement phases: per-step
     * movePhaseCycles for leaves; the teleport share of coarseGateCost
     * plus call flush overheads for composed levels.
     */
    Count commCycles;

    /** Teleportation moves in fine-grained (leaf) schedules. Each
     * teleport consumes one pre-distributed EPR pair (paper §2.3), so
     * this doubles as EPR-pair consumption; see eprPairs(). Coarse-level
     * gate movement is charged in commCycles but is not itemized as
     * moves (there is no materialized move to count). */
    Count teleportMoves;

    /** Teleports that block the schedule (tight reuse windows). */
    Count blockingTeleports;

    /** Ballistic region<->scratchpad moves. */
    Count localMoves;

    /** Leaf timesteps whose movement phase costs full teleport time. */
    Count stepsWithBlockingMove;

    /** Leaf timesteps whose movement phase costs one local-move cycle. */
    Count stepsWithOnlyLocalMoves;

    /** (region, timestep) pairs executing operations. */
    Count activeRegionSteps;

    /** Total operand qubits across all active (region, timestep) pairs
     * (== CommStats::operandSlots). */
    Count operandTouches;

    /** Most operand qubits any one region touches in one timestep.
     * Composes by max: a peak anywhere is a peak of the whole run. */
    uint64_t peakRegionOccupancy = 0;

    /** Peak blocking teleports in any single timestep (EPR bandwidth
     * demand). Composes by max. */
    uint64_t peakBlockingMovesPerStep = 0;

    /** Most simultaneously active regions in any leaf timestep.
     * Composes by max. */
    uint64_t peakActiveRegions = 0;

    /** Module invocations beneath one run of this module (callees,
     * transitively, with repeats; the run itself excluded). */
    Count callInvocations;

    /** Teleports whose endpoints live on different cores (== CommStats::
     * interCoreTeleports; composes linearly). Always 0 on the flat
     * machine. */
    Count interCoreTeleports;

    /** Upper bounds (inclusive) of the occupancy buckets: powers of two
     * up to the paper's largest machine (k = 128, Fig. 9). One overflow
     * bucket follows the last bound. */
    static constexpr std::array<uint64_t, 8> occupancyBounds = {
        1, 2, 4, 8, 16, 32, 64, 128};

    /**
     * Histogram of active-regions-per-timestep over every leaf timestep
     * executed (fixed buckets, occupancyBounds; last bucket is
     * overflow). Bucket counts compose linearly by repeat products, so
     * the whole-program region-utilization profile of a 10^12-gate run
     * costs the same handful of integers as a single leaf's.
     */
    std::array<Count, occupancyBounds.size() + 1> occupancy{};

    /** One counter of the summary: an additive Count or a peak that
     * composes by max. Exactly one of the two pointers is set. */
    struct Member
    {
        const char *name;
        Count ResourceSummary::*count = nullptr;
        uint64_t ResourceSummary::*peak = nullptr;

        /** This counter's value in @p s. */
        Count
        of(const ResourceSummary &s) const
        {
            return count != nullptr ? s.*count : Count(s.*peak);
        }
    };

    /** Every counter above, in declaration order: what add() composes,
     * saturated() reads, a field-by-field comparison walks and a .msqc
     * record stores, each followed by the occupancy buckets. */
    static std::span<const Member> members();

    /**
     * Add @p times runs of @p part: every additive counter and bucket
     * gains times * part's, every peak takes the max with part's. The
     * one compose step of the summary algebra (callee bodies, coarse
     * gates, call flushes, invocation-weighted sums).
     */
    void add(const ResourceSummary &part, Count times = 1);

    /** Did any counter clip at 2^128-1? Clipping is sticky, so this
     * poisons every dependent field. */
    bool saturated() const;

    /** EPR pairs consumed == teleport moves (paper §2.3). */
    Count eprPairs() const { return teleportMoves; }

    /** Average operands per active region, operandTouches /
     * activeRegionSteps (0 when no region was ever active). */
    double meanRegionOccupancy() const;

    /** Fraction (0..1) of serialCycles spent on movement phases. */
    double commFraction() const;

    /** Leaf timesteps counted by the occupancy histogram. */
    Count occupancySteps() const;

    /** Human-readable label of occupancy bucket @p index, e.g. "3-4". */
    static std::string occupancyLabel(size_t index);

    /** Bucket index of @p active_regions (ModuleHistogram idiom). */
    static size_t occupancyBucket(uint64_t active_regions);
};

/**
 * Fold one annotated leaf schedule into its ResourceSummary with one
 * loop over its steps (no random access, no intermediate storage).
 * This is the reference oracle, used by no compile path: the summary
 * CommunicationAnalyzer::annotate derives while emitting the moves must
 * equal it field for field, and re-deriving it from the move and slot
 * streams lets the two paths cross-check each other (E001).
 *
 * On the flat one-core machine the fold prices each movement phase with
 * its own formula under @p arch's EPR bandwidth; on a multi-core
 * topology it prices phases with a MovePhaseCostModel over @p arch and
 * counts inter-core teleports.
 */
ResourceSummary summarizeLeafSchedule(const LeafSchedule &sched,
                                      const MultiSimdArch &arch);

/**
 * Bottom-up whole-program composition of per-module ResourceSummaries
 * through the call graph's repeat algebra — O(distinct modules) time
 * and memory regardless of repeat counts.
 */
class ScheduleSummaryAnalysis
{
  public:
    /** Produces the summary of one leaf module (typically a cache-hit
     * lookup of a schedule folded once). */
    using LeafSummaryFn =
        std::function<ResourceSummary(const Module &, ModuleId)>;

    /**
     * Analyze all modules reachable from @p prog's entry.
     * @param mode communication mode (selects coarse gate/call costs).
     * @param leaf_summary called once per reachable leaf module.
     * @param diags optional sink for E006 saturation warnings, one,
     *        with its source line, at each call site whose composed
     *        summary first clips.
     */
    ScheduleSummaryAnalysis(const Program &prog, CommMode mode,
                            const LeafSummaryFn &leaf_summary,
                            DiagnosticEngine *diags = nullptr);

    /** Summary of one invocation of module @p id. */
    const ResourceSummary &summary(ModuleId id) const;

    /** Summary of the whole program (one run of the entry module). */
    const ResourceSummary &programSummary() const;

    /** Modules reachable from the entry, callees first. */
    const std::vector<ModuleId> &analyzedModules() const { return order; }

    /**
     * The contribution of module @p id's *own* operations to one of its
     * invocations — gates at coarse cost plus per-call flush overhead,
     * callee bodies excluded. Σ_m invocations(m) * localContribution(m)
     * over all reachable m equals programSummary() exactly; the checker
     * uses this identity as an independent top-down cross-check (E005).
     */
    ResourceSummary localContribution(ModuleId id) const;

  private:
    const Program *prog;
    CommMode mode;
    std::vector<ModuleId> order;
    std::vector<ResourceSummary> summaries; ///< indexed by ModuleId
    std::vector<bool> analyzed;             ///< indexed by ModuleId
};

} // namespace msq

#endif // MSQ_ANALYSIS_SCHEDULE_SUMMARY_HH
