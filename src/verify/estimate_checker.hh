/**
 * @file
 * Paper-scale resource estimation driver and its exactness checker
 * (diagnostic codes E001-E006).
 *
 * computeProgramEstimate() is the production entry point of the
 * schedule-summary analysis (analysis/schedule_summary.hh). It reads
 * the ProgramSchedule it is handed and schedules nothing: the makespan
 * is the schedule's total, and the ResourceSummary of each leaf's
 * widest result (ModuleScheduleInfo::result) is composed bottom-up
 * through the repeat algebra — exact program-level resource reports
 * for 10^12-gate workloads in O(distinct leaves) memory, since a
 * CoarseScheduler run with a LeafScheduleCache schedules each
 * *distinct* leaf once.
 *
 * checkEstimateExactness() is what makes the estimate trustworthy: the
 * composed numbers are claimed *exact*, so on any program small enough
 * to materialize, they must equal independently computed ground truth
 * field-for-field. Divergence is a hard error — an estimator, repeat
 * algebra, scheduler or cache bug — never an approximation error:
 *
 *  - E001 the streaming summary fold of a leaf scheduled from scratch
 *         disagrees, on any field, with the summary the
 *         CommunicationAnalyzer accumulates while emitting the moves,
 *         or with the cached summary the fresh ProgramSchedule points
 *         at — on the caller's cache, the one the estimate composed;
 *  - E002 the estimate disagrees with a fresh recomputation — its
 *         makespan with a freshly computed ProgramSchedule, or its
 *         summary fields with a fresh recomposition. On the caller's
 *         cache every leaf hits, so that schedule re-runs only coarse
 *         packing, and the leaf summaries it recomposes are checked by
 *         E001 alone;
 *  - E003 composed gate totals disagree with ResourceEstimator's
 *         independently composed totals (per module and program);
 *  - E004 the composition disagrees with a literally unrolled walk of
 *         the call tree (repeat-by-repeat addition — multiplication
 *         checked against repeated addition); budget-gated;
 *  - E005 the composition disagrees with the invocation-weighted sum
 *         Σ invocations(m) * localContribution(m) (independent
 *         top-down path through ResourceEstimator's invocation counts);
 *  - E006 (warning) the repeat algebra saturated at 2^128-1 — a
 *         saturated summary is excluded from exactness comparisons
 *         because equality of two clipped values proves nothing.
 */

#ifndef MSQ_VERIFY_ESTIMATE_CHECKER_HH
#define MSQ_VERIFY_ESTIMATE_CHECKER_HH

#include <cstdint>
#include <memory>

#include "analysis/schedule_summary.hh"
#include "arch/multi_simd.hh"
#include "ir/program.hh"
#include "sched/coarse.hh"
#include "sched/leaf_cache.hh"
#include "sched/leaf_scheduler.hh"
#include "support/diagnostic.hh"
#include "support/telemetry.hh"

namespace msq {

/** Exact whole-program resource estimate (the --estimate payload). */
struct ProgramResourceEstimate
{
    /** Composed summary of one program run (entry module). */
    ResourceSummary program;

    /** Parallel makespan: the CoarseScheduler's entry best length. */
    uint64_t makespanCycles = 0;

    /** Distinct leaf results composed (the memory bound): a leaf
     * cache hands structurally identical leaves one result. */
    uint64_t distinctLeafSchedules = 0;

    /** Reachable leaf modules (>= distinctLeafSchedules). */
    uint64_t leafModules = 0;

    /** Modules reachable from the entry. */
    uint64_t reachableModules = 0;

    /**
     * Speedup over sequential execution (one gate per cycle):
     * gateOps / makespan — the paper's speedup metric.
     */
    double sequentialSpeedup() const;

    /** Speedup over the naive every-timestep movement model
     * (naiveCyclesPerGate * gateOps / makespan, paper §4). */
    double naiveSpeedup() const;
};

/**
 * Compose the exact resource estimate of @p prog under @p mode from
 * @p psched, a CoarseScheduler run of @p prog under the same mode, in
 * O(distinct modules): the makespan is psched.totalCycles, and the
 * summaries of the full-width leaf results it points at are composed
 * through the repeat algebra.
 *
 * @param metrics optional telemetry sink: the estimate.* counters and
 *        distributions and the toolflow.estimate_ms phase timing.
 * @param diags optional sink for E006 composition-saturation warnings,
 *        one at each call site where the composed summary first clips.
 */
ProgramResourceEstimate
computeProgramEstimate(const Program &prog, const ProgramSchedule &psched,
                       CommMode mode, MetricsRegistry *metrics = nullptr,
                       DiagnosticEngine *diags = nullptr);

/** How the exactness checker schedules its fresh recompute (E002). */
struct EstimateOptions
{
    /** Scheduling fan-out threads (1 = sequential, 0 = hardware). */
    unsigned numThreads = 1;

    /** Leaf-schedule memoization cache; created fresh when null. May
     * be the cache that produced the estimate's schedule, so already
     * scheduled leaves are never recomputed. */
    std::shared_ptr<LeafScheduleCache> cache;
};

/** Aggregate numbers from one exactness-checker run. */
struct EstimateCheckStats
{
    uint64_t leafFoldsChecked = 0; ///< distinct leaves re-folded (E001)
    uint64_t modulesChecked = 0;   ///< modules compared (E003/E005)
    bool unrolledChecked = false;  ///< E004 ran (within budget)
};

/** Default op-visit budget for the E004 unrolled-walk cross-check. */
constexpr uint64_t defaultMaterializeBudget = 5'000'000;

/**
 * Verify @p est against independently computed ground truth (E001-E006
 * above). @p arch, @p scheduler and @p mode must match the schedule
 * that produced @p est.
 *
 * @param materialize_budget op-visit ceiling for the E004 unrolled
 *        walk; programs larger than this skip E004 (the other checks
 *        run at any scale — they are all O(distinct modules)).
 * @return true when no Error-severity diagnostic was added.
 */
bool checkEstimateExactness(const Program &prog,
                            const MultiSimdArch &arch,
                            const LeafScheduler &scheduler, CommMode mode,
                            const ProgramResourceEstimate &est,
                            DiagnosticEngine &diags,
                            const EstimateOptions &opts = {},
                            EstimateCheckStats *stats = nullptr,
                            uint64_t materialize_budget =
                                defaultMaterializeBudget);

} // namespace msq

#endif // MSQ_VERIFY_ESTIMATE_CHECKER_HH
