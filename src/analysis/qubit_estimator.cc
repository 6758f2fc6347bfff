#include "analysis/qubit_estimator.hh"

#include <algorithm>

#include "support/logging.hh"

namespace msq {

QubitEstimator::QubitEstimator(const Program &prog)
    : prog(&prog), demand(prog.numModules(), 0)
{
    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        uint64_t deepest = 0;
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            const Module &callee = prog.module(op.callee);
            uint64_t extra = demand[op.callee] - callee.numParams();
            deepest = std::max(deepest, extra);
        }
        demand[id] = mod.numQubits() + deepest;
    }
}

uint64_t
QubitEstimator::qubitsNeeded(ModuleId id) const
{
    if (id >= demand.size())
        panic("QubitEstimator: module id out of range");
    return demand[id];
}

uint64_t
QubitEstimator::programQubits() const
{
    return qubitsNeeded(prog->entry());
}

} // namespace msq
