/**
 * @file
 * Branch-and-bound optimal leaf scheduler (ROADMAP open item 2).
 *
 * OptScheduler searches for a leaf schedule whose *annotated* makespan
 * equals the static lower bound from analysis/bounds — the same
 * critical-path / resource / Fernandez-interval composite the B-checker
 * certifies schedules against. Because every valid schedule satisfies
 *
 *     totalCycles = computeSteps + movementCycles >= computeSteps >= LB,
 *
 * a schedule with totalCycles == LB is provably minimum-makespan; the
 * certificate is self-validating and independent of any restriction the
 * search applies. The search therefore enumerates only LB-step packings
 * of the dependence DAG (depth-first over timesteps, most-parallel
 * children first), prunes with the same bounds it certifies against
 * plus a dominance table over scheduled-set frontiers, and accepts the
 * first completed packing whose communication annotation adds zero
 * movement cycles.
 *
 * Exploration is budgeted by an explicit **node budget**, not
 * wall-clock, so results are bit-identical across machines, thread
 * counts, and cache states (the PR 3 determinism contract); the budget
 * is part of fingerprint(), making it safe as a memoization key. When
 * the budget is exhausted — or the leaf exceeds the size cap, or no
 * LB-step zero-communication packing exists in the searched space —
 * the scheduler deterministically returns the configured RCP/LPFS
 * fallback schedule and reports ScheduleProvenance::Fallback; proofs
 * report ScheduleProvenance::Optimal.
 */

#ifndef MSQ_SCHED_OPT_HH
#define MSQ_SCHED_OPT_HH

#include <cstdint>

#include "sched/leaf_scheduler.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"

namespace msq {

/** Which heuristic serves as the fallback tier. */
enum class OptFallback : uint8_t {
    Rcp,
    Lpfs,
};

/** @return "rcp" / "lpfs". */
const char *optFallbackName(OptFallback fallback);

/** The branch-and-bound optimal leaf scheduler with heuristic fallback. */
class OptScheduler : public LeafScheduler
{
  public:
    struct Options
    {
        /**
         * Branch-and-bound nodes (timestep assignments) to expand
         * before giving up. A node count — never wall-clock — keeps the
         * outcome a pure function of the input.
         */
        uint64_t nodeBudget = 200'000;

        /** Leaves with more ops go straight to the fallback tier. */
        uint32_t maxOps = 256;

        /** Heuristic used on budget exhaustion / oversized leaves. */
        OptFallback fallback = OptFallback::Lpfs;
    };

    /**
     * @p mode is the communication model the candidate annotation, and
     * so the optimality certificate, is judged under. It must match the
     * mode the surrounding CoarseScheduler costs schedules with.
     */
    OptScheduler() : OptScheduler(Options{}) {}
    explicit OptScheduler(Options options, CommMode mode = CommMode::Global)
        : options(options), commMode(mode)
    {
    }

    const char *name() const override { return "opt"; }
    std::string fingerprint() const override;

    /** The fallback's saturation width: the search itself places at
     * most Q ops per step in the lowest free or resident regions. */
    unsigned saturationWidth(const Module &mod) const override;

  protected:
    LeafSchedule scheduleOnDag(const Module &mod, const DepDag &dag,
                               const MultiSimdArch &arch,
                               ScheduleAttempt &attempt,
                               std::span<const unsigned> home)
        const override;

  private:
    const LeafScheduler &fallbackScheduler() const;

    Options options;
    CommMode commMode;
    RcpScheduler rcp;
    LpfsScheduler lpfs;
};

} // namespace msq

#endif // MSQ_SCHED_OPT_HH
