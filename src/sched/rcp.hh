/**
 * @file
 * Ready Critical Path (RCP) scheduling — paper §4.1, Algorithm 1.
 *
 * RCP is a classic list scheduler (Yang & Gerasoulis) extended for the
 * Multi-SIMD execution model: it keeps a *ready* list (only ops whose
 * dependences are met) and, at each timestep, repeatedly selects the
 * (SIMD region, operation type) pair with the highest priority weight:
 *
 *   weight = w_op * |ready ops of the type|          (data parallelism)
 *          + w_dist * (operand already in region)    (movement avoidance)
 *          - w_slack * slack(op)                     (criticality)
 *
 * The winning type is scheduled into its preferred region (all ready ops
 * of that type, up to the d qubit budget), the region is retired for this
 * timestep, and selection repeats until regions or ready ops run out.
 * All weights default to 1, as in the paper.
 */

#ifndef MSQ_SCHED_RCP_HH
#define MSQ_SCHED_RCP_HH

#include "sched/leaf_scheduler.hh"

namespace msq {

/** The RCP fine-grained scheduler. */
class RcpScheduler : public LeafScheduler
{
  public:
    /** Priority weights (w_op, w_dist, w_slack); paper sets all to 1. */
    struct Weights
    {
        double op = 1.0;
        double dist = 1.0;
        double slack = 1.0;
    };

    RcpScheduler() : RcpScheduler(Weights{}) {}
    explicit RcpScheduler(Weights weights) : weights(weights) {}

    const char *name() const override { return "rcp"; }
    std::string fingerprint() const override;

  protected:
    LeafSchedule scheduleOnDag(const Module &mod, const DepDag &dag,
                               const MultiSimdArch &arch,
                               ScheduleAttempt &attempt,
                               std::span<const unsigned> home)
        const override;

  private:
    Weights weights;
};

} // namespace msq

#endif // MSQ_SCHED_RCP_HH
