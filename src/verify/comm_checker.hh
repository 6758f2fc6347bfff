/**
 * @file
 * Communication-schedule race detector (diagnostic codes M001-M010).
 *
 * The CommunicationAnalyzer (sched/comm.cc) decorates a leaf schedule
 * with a movement plan: which qubit teleports or shuttles where, at
 * every timestep. Nothing downstream re-derives that plan, so a bug in
 * the analyzer silently corrupts every cost number built on top of it.
 * This checker is the one replay of that plan (the leaf-schedule
 * validator, sched/validator.hh, checks compute steps only): it tracks
 * every qubit's location and every scratchpad's occupancy cycle by
 * cycle against the communication invariants of the Multi-SIMD model
 * (paper §2.4, §4.4):
 *
 *  - M001 a qubit is moved somewhere other than its gate's region in a
 *         timestep where it participates in that gate (races the gate);
 *  - M002 two moves target the same qubit in one timestep (no-cloning:
 *         a qubit has one location, so simultaneous moves conflict);
 *  - M003 a region holds more than d qubits at some timestep;
 *  - M004 a scratchpad holds more than its capacity;
 *  - M005 (warning) wasted communication: a qubit that liveness proves
 *         dead is fetched into a region, parked into a scratchpad, or
 *         moved with a blocking teleport. Dead *evictions* to global
 *         memory that ride the masked-teleport window are mandatory in
 *         the SIMD model (a parked qubit would receive the region's
 *         gate) and are exempt;
 *  - M006 a move's declared source disagrees with the replayed location;
 *  - M007 an operand is not resident in its gate's region after the
 *         movement phase;
 *  - M008 (warning) a move whose destination equals its current
 *         location (pure overhead);
 *  - M009 a move endpoint names a memory bank, region or scratchpad the
 *         machine does not have (a core >= cores, a region >= k); such a
 *         move is neither routed nor counted toward any occupancy;
 *  - M010 the masked inter-core teleports crossing one link in one
 *         timestep exceed the link's EPR bandwidth (the analyzer must
 *         demote the excess to blocking, not over-subscribe the link).
 *
 * On a multi-core topology the replay starts every qubit in its home
 * core's memory bank, recomputing the identical pure qubit mapping the
 * analyzer used (analysis/qubit_mapping.hh).
 */

#ifndef MSQ_VERIFY_COMM_CHECKER_HH
#define MSQ_VERIFY_COMM_CHECKER_HH

#include <cstdint>

#include "arch/multi_simd.hh"
#include "arch/schedule.hh"
#include "support/diagnostic.hh"

namespace msq {

/** Aggregate numbers from one checker run (for reporting/tests). */
struct CommCheckStats
{
    uint64_t steps = 0;           ///< timesteps replayed
    uint64_t movesChecked = 0;    ///< moves replayed
    uint64_t teleports = 0;       ///< global (non-local) moves
    uint64_t localMoves = 0;      ///< region<->scratchpad moves
    uint64_t maskedTeleports = 0; ///< non-blocking global moves
    uint64_t deadMoves = 0;       ///< moves of dead qubits (any kind)
    uint64_t interCoreTeleports = 0; ///< teleports crossing cores
};

/**
 * Replay @p sched's movement plan against @p arch and report every
 * violated communication invariant to @p diags (codes M001-M010).
 *
 * @return true when the replay added no Error-severity diagnostics
 * (M005/M008 warnings alone keep the schedule passing).
 */
bool checkCommSchedule(const LeafSchedule &sched, const MultiSimdArch &arch,
                       DiagnosticEngine &diags,
                       CommCheckStats *stats = nullptr);

} // namespace msq

#endif // MSQ_VERIFY_COMM_CHECKER_HH
