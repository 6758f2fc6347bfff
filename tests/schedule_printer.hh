/**
 * @file
 * Test-only human-readable timeline dump of a leaf schedule: one line
 * per timestep, showing what each SIMD region executes and which qubits
 * move where (with blocking teleports flagged). The format mirrors the
 * paper's Fig. 4 schedule listings; the golden dumps under
 * tests/golden/ are written in it.
 */

#ifndef MSQ_TESTS_SCHEDULE_PRINTER_HH
#define MSQ_TESTS_SCHEDULE_PRINTER_HH

#include <cstdint>
#include <ostream>

#include "arch/schedule.hh"

namespace msq {

/** Options for timeline printing. */
struct TimelinePrintOptions
{
    /** Print at most this many timesteps (0 = all). */
    uint64_t maxSteps = 0;

    /** Include the movement slot contents. */
    bool showMoves = true;
};

/**
 * Print @p sched as a timestep-per-line timeline, e.g.
 *
 *   t0 [5]  r0{CNOT: q0 q1}  r1{H: q2}   | moves: q3 mem->r0!
 *
 * where [5] is the step's cycle cost and '!' marks blocking teleports.
 */
void printTimeline(std::ostream &os, const LeafSchedule &sched,
                   const TimelinePrintOptions &options = {});

} // namespace msq

#endif // MSQ_TESTS_SCHEDULE_PRINTER_HH
