/**
 * @file
 * Communication analysis and movement scheduling (paper §2.3, §3.2, §4.4).
 *
 * Given a compute-only leaf schedule, derives every qubit movement the
 * Multi-SIMD execution model requires and writes it into each timestep's
 * movement slot:
 *
 *  - a qubit scheduled in a region it does not currently occupy is
 *    teleported in (from global memory, another region, or a local
 *    scratchpad);
 *  - when a region is active in a timestep, any qubit parked there that is
 *    not an operand must first be evicted — to the region's local
 *    scratchpad when the qubit's next use is in the same region and
 *    capacity remains (1-cycle ballistic move), otherwise to global
 *    memory (teleport);
 *  - qubits parked in idle regions stay put for free.
 *
 * Latency masking (§2.3): "by choosing QT as the method of communication,
 * we mask the latency of moving qubits around. This masking is possible by
 * pre-distribution of these [EPR] pairs before they are needed." A
 * teleport therefore only *blocks* the schedule when it is tight — when
 * the qubit was still in use fewer than 4 timesteps before it is needed
 * (inbound), or is needed again fewer than 4 timesteps after it leaves
 * (outbound). Loose moves overlap computation at zero cost; this is what
 * separates scheduled communication from the naive every-timestep
 * movement model (5x, §4).
 *
 * Timestep cost: the movement phase costs the full 4 cycles if any
 * blocking (tight, global) move occurs in it ("If any SIMD regions in a
 * timestep have a global move, the full four cycle move time is
 * retained", §4.4), 1 cycle if only local ballistic moves occur, 0
 * otherwise.
 *
 * One walk derives the moves and hands each to a move sink: annotate()
 * records them into the schedule (the comm checker, the validator,
 * tests), countMoves() only counts them (the coarse scheduler's width
 * tasks). Both fold the same ResourceSummary (DESIGN.md §9).
 */

#ifndef MSQ_SCHED_COMM_HH
#define MSQ_SCHED_COMM_HH

#include <cstdint>
#include <span>

#include "arch/multi_simd.hh"
#include "arch/schedule.hh"

namespace msq {

struct ResourceSummary;

/**
 * Movement statistics of one annotated schedule: a projection of its
 * ResourceSummary, each counter clamped to 64 bits. No library path
 * reads it; only the one-argument CommunicationAnalyzer::annotate
 * returns it, for tests and for perfbench's trace replica of the
 * toolflow (perfbench/common.cc). The type leaves with that replica.
 */
struct CommStats
{
    /** All teleportation moves, masked or not. */
    uint64_t teleportMoves = 0;
    /** Teleports that block the schedule (tight reuse windows). */
    uint64_t blockingTeleports = 0;
    /** Ballistic region<->scratchpad moves. */
    uint64_t localMoves = 0;
    /** Timesteps whose movement phase costs the full teleport time. */
    uint64_t stepsWithBlockingMove = 0;
    /** Timesteps whose movement phase costs one local-move cycle. */
    uint64_t stepsWithOnlyLocalMoves = 0;
    /** Peak blocking teleports in any one timestep (EPR bandwidth
     * demand, paper §2.3). */
    uint64_t peakBlockingMovesPerStep = 0;
    /** Schedule length in cycles including movement phases (under the
     * architecture's EPR bandwidth). */
    uint64_t totalCycles = 0;

    // Region-occupancy profile: 0 under CommMode::None, where no
    // movement is modelled. Average operands per active region =
    // operandSlots / activeRegionSteps.
    /** (region, timestep) pairs in which the region executes ops. */
    uint64_t activeRegionSteps = 0;
    /** Total operand qubits across all active (region, timestep)
     * pairs. */
    uint64_t operandSlots = 0;
    /** Most operand qubits any one region touches in one timestep. */
    uint64_t peakRegionOccupancy = 0;

    /** Teleports whose endpoints live on different cores (masked or
     * blocking), routed over the topology's links. Always 0 on the
     * flat one-core machine. */
    uint64_t interCoreTeleports = 0;
};

/** Derives and schedules qubit movement for leaf schedules. */
class CommunicationAnalyzer
{
  public:
    /**
     * @param arch machine model (local capacity read from here).
     * @param mode CommMode::None leaves the schedule move-free;
     *        Global forbids scratchpad use; GlobalWithLocalMem uses
     *        scratchpads up to arch.localMemCapacity.
     */
    CommunicationAnalyzer(const MultiSimdArch &arch, CommMode mode)
        : arch(arch), mode(mode)
    {}

    /**
     * Clear any existing movement annotation on @p sched, recompute all
     * moves under this analyzer's mode, and return the statistics: the
     * summary of the two-argument overload, projected onto CommStats.
     * Kept for tests and perfbench's trace replica; it leaves with the
     * replica.
     */
    CommStats annotate(LeafSchedule &sched) const;

    /**
     * Clear any existing movement annotation on @p sched, recompute all
     * moves under this analyzer's mode, and fold the leaf's
     * ResourceSummary into @p summary — field for field what
     * summarizeLeafSchedule(sched, arch) folds from the annotated
     * schedule, derived in the same walk that emits the moves. Under
     * CommMode::None the summary still carries the placement profile
     * (gate ops, region occupancy, the occupancy histogram).
     */
    void annotate(LeafSchedule &sched, ResourceSummary &summary) const;

    /**
     * As above, with every qubit starting in its home core's bank under
     * the caller's @p home = computeQubitMapping(sched.module(),
     * arch.topology), so a width sweep maps each leaf once. Read only
     * when movement is modelled on a multi-core topology (then its size
     * must be numQubits(); panics otherwise).
     */
    void annotate(LeafSchedule &sched, ResourceSummary &summary,
                  std::span<const unsigned> home) const;

    /**
     * The three-argument annotate's walk with a counting move sink:
     * folds the same ResourceSummary, field for field, but records no
     * move and leaves @p sched's buffer untouched. The coarse
     * scheduler's width tasks run it, since nothing past a width task
     * reads the moves. @p home as for annotate.
     */
    void countMoves(const LeafSchedule &sched, ResourceSummary &summary,
                    std::span<const unsigned> home) const;

  private:
    MultiSimdArch arch;
    CommMode mode;
};

} // namespace msq

#endif // MSQ_SCHED_COMM_HH
