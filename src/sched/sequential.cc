#include "sched/leaf_scheduler.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "analysis/qubit_mapping.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

const char *
scheduleProvenanceName(ScheduleProvenance provenance)
{
    switch (provenance) {
      case ScheduleProvenance::Heuristic:
        return "heuristic";
      case ScheduleProvenance::Optimal:
        return "optimal";
      case ScheduleProvenance::Fallback:
        return "fallback";
    }
    panic("scheduleProvenanceName: invalid provenance");
}

void
LeafScheduler::checkInputs(const Module &mod, const MultiSimdArch &arch)
{
    arch.validate();
    if (!mod.isLeaf())
        panic("leaf scheduler invoked on non-leaf module " + mod.name());
    // seen[q] == i + 1 once op i has named qubit q.
    std::vector<uint32_t> seen(mod.numQubits(), 0);
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        const Operation &op = mod.op(i);
        if (!isPrimitiveGate(op.kind)) {
            panic(csprintf("leaf scheduler: module %s contains "
                           "non-primitive gate %s; run decomposition "
                           "passes first",
                           mod.name().c_str(), gateName(op.kind)));
        }
        // An operand-free op would have no dependences at all, breaking
        // the qubit-disjoint ready set saturationWidth() relies on.
        if (op.operands.empty()) {
            panic(csprintf("leaf scheduler: gate %s in module %s has no "
                           "operands",
                           gateName(op.kind), mod.name().c_str()));
        }
        if (opQubitCount(op) > arch.d) {
            panic(csprintf("leaf scheduler: gate %s touches %zu qubits, "
                           "more than region width d",
                           gateName(op.kind), op.operands.size()));
        }
        // Repeated operands would make opQubitCount() disagree with the
        // set of qubits actually occupied (and with the bound side's
        // operand-touch accounting); such gates are ill-formed (V003)
        // and must never reach a scheduler.
        for (QubitId q : op.operands) {
            if (seen[q] == i + 1)
                panic(csprintf("leaf scheduler: gate %s in module %s "
                               "names the same qubit twice; reject with "
                               "V003 in the IR verifier first",
                               gateName(op.kind), mod.name().c_str()));
            seen[q] = i + 1;
        }
    }
}

LeafSchedule
LeafScheduler::schedule(const Module &mod, const MultiSimdArch &arch) const
{
    ScheduleAttempt attempt;
    return scheduleWithAttempt(mod, arch, attempt);
}

LeafSchedule
LeafScheduler::scheduleWithAttempt(const Module &mod,
                                   const MultiSimdArch &arch,
                                   ScheduleAttempt &attempt) const
{
    checkInputs(mod, arch);
    return scheduleWithAttempt(mod, DepDag::build(mod), arch, attempt);
}

LeafSchedule
LeafScheduler::scheduleWithAttempt(const Module &mod, const DepDag &dag,
                                   const MultiSimdArch &arch,
                                   ScheduleAttempt &attempt,
                                   std::span<const unsigned> home) const
{
    // The op walk of checkInputs is the caller's, once per leaf; only
    // the per-width checks run here.
    arch.validate();
    if (dag.numNodes() != mod.numOps())
        panic("leaf scheduler: DAG does not match module " + mod.name());
    std::vector<unsigned> computed;
    if (arch.topology.multiCore() && home.empty()) {
        computed = computeQubitMapping(mod, arch.topology);
        home = computed;
    }
    attempt = ScheduleAttempt{};
    return scheduleOnDag(mod, dag, arch, attempt, home);
}

unsigned
LeafScheduler::saturationWidth(const Module &mod) const
{
    return static_cast<unsigned>(std::clamp<uint64_t>(
        mod.numQubits(), 1, std::numeric_limits<unsigned>::max()));
}

LeafSchedule
SequentialScheduler::scheduleOnDag(const Module &mod, const DepDag &,
                                   const MultiSimdArch &arch,
                                   ScheduleAttempt &,
                                   std::span<const unsigned>) const
{
    ScheduleBuilder builder(mod, arch.k);
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        builder.beginStep();
        builder.slot(0).kind = mod.op(i).kind;
        builder.slot(0).ops.push_back(i);
        builder.endStep();
    }
    return builder.finish();
}

} // namespace msq
