/**
 * @file
 * Structural validation of schedules. Used by tests and available to
 * library users as a debugging aid; every scheduler's output must pass.
 *
 * Leaf-schedule invariants (codes S001, S003-S009):
 *  1. every module operation is scheduled exactly once;
 *  2. dependences: each op runs in a strictly later timestep than every
 *     op it depends on;
 *  3. SIMD homogeneity: a region executes a single gate type per step;
 *  4. qubit exclusivity: no qubit is touched by two ops in one timestep
 *     (within one region or across different regions);
 *  5. width: a region touches at most d qubits per timestep.
 *
 * The movement plan the communication analyzer adds is replayed by
 * checkCommSchedule (verify/comm_checker.hh, codes M001-M010), not
 * here.
 *
 * Coarse-schedule invariants (codes C001-C006): every reachable module
 * analyzed, leaf flags consistent, and each module's width/length
 * trade-off curve non-empty, monotone, and within the machine width.
 *
 * Both validators report through a DiagnosticEngine. By default they
 * run in panic-on-first-error mode (violations are scheduler bugs);
 * pass a collecting engine to gather every violation with its code.
 */

#ifndef MSQ_SCHED_VALIDATOR_HH
#define MSQ_SCHED_VALIDATOR_HH

#include "arch/multi_simd.hh"
#include "arch/schedule.hh"
#include "sched/coarse.hh"
#include "support/diagnostic.hh"

namespace msq {

/**
 * Validate @p sched's compute steps against @p arch (invariants 1-5).
 * @param diags when null, violations panic immediately (PanicError on
 *        the first one, as schedulers are library code); when supplied,
 *        all violations are reported into it per its FailMode.
 * @return true when no violations were reported.
 */
bool validateLeafSchedule(const LeafSchedule &sched,
                          const MultiSimdArch &arch,
                          DiagnosticEngine *diags = nullptr);

/**
 * Validate a whole-program coarse schedule against @p prog and @p arch.
 * Same diagnostics contract as validateLeafSchedule().
 * @return true when no violations were reported.
 */
bool validateProgramSchedule(const Program &prog,
                             const ProgramSchedule &psched,
                             const MultiSimdArch &arch,
                             DiagnosticEngine *diags = nullptr);

} // namespace msq

#endif // MSQ_SCHED_VALIDATOR_HH
