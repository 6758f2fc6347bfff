/**
 * @file
 * Core-affinity region rebind (DESIGN.md §16). The leaf schedulers are
 * topology-agnostic: they place operations into abstract SIMD regions
 * knowing only k and d. On a multi-core topology that leaves the
 * region->core assignment arbitrary, so the qubit-partitioning pass
 * (analysis/qubit_mapping) would lower the interaction cut without
 * lowering actual link traffic — operations would still execute on
 * whatever core their region index happened to land on.
 *
 * applyCoreAffinity() closes that gap as a deterministic post-pass:
 * within each timestep it permutes the op slots onto regions owned by
 * the cores where their operand qubits are homed (majority vote over
 * the same computeQubitMapping() the communication analyzer uses). The
 * coarse scheduler computes that mapping once per leaf and passes it to
 * every width's rebind and annotation; the two-argument overload
 * computes it itself.
 * Permuting slots within a timestep preserves every Multi-SIMD
 * constraint — dependences (timestep order is untouched), SIMD
 * homogeneity and the d bound (slot contents move wholesale), and the
 * k bound (a step never has more slots than regions) — so the rebound
 * schedule validates exactly like the original.
 *
 * On the one-core topology the pass returns its input unchanged
 * (same shared buffer), keeping the flat machine bit-identical.
 */

#ifndef MSQ_SCHED_CORE_AFFINITY_HH
#define MSQ_SCHED_CORE_AFFINITY_HH

#include <span>

#include "arch/multi_simd.hh"
#include "arch/schedule.hh"

namespace msq {

/**
 * Rebind @p sched's region assignment so each timestep's op slots
 * execute on the cores their operand qubits are homed on. Pure function
 * of (module structure, arch) — safe to memoize under leafScheduleKey,
 * which already covers the arch fingerprint.
 *
 * Slots are assigned largest-operand-count first; each takes its
 * highest-vote core with a free region (ties prefer the slot's original
 * core, then the lowest core index), and within that core keeps its
 * original region when free (preserving LPFS path pinning) or takes the
 * lowest free region.
 *
 * @pre @p sched carries no movement annotation (schedulers run this
 *      before the CommunicationAnalyzer); panics otherwise.
 */
LeafSchedule applyCoreAffinity(LeafSchedule sched,
                               const MultiSimdArch &arch);

/**
 * As above, under the caller's @p home =
 * computeQubitMapping(sched.module(), arch.topology) (size
 * numQubits(); panics otherwise), so a width sweep maps each leaf once.
 */
LeafSchedule applyCoreAffinity(LeafSchedule sched,
                               const MultiSimdArch &arch,
                               std::span<const unsigned> home);

} // namespace msq

#endif // MSQ_SCHED_CORE_AFFINITY_HH
