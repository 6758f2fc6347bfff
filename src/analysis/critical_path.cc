#include "analysis/critical_path.hh"

#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/saturate.hh"

namespace msq {

CriticalPathAnalysis::CriticalPathAnalysis(const Program &prog)
    : prog(&prog), lengths(prog.numModules(), 0)
{
    // A gate weighs 1 and a call its callee's critical path times the
    // repeat count.
    std::vector<uint64_t> weights;
    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        weights.assign(mod.numOps(), 1);
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            weights[index] = satMul(op.repeat, lengths[op.callee]);
        }
        lengths[id] = criticalPathLength(mod, weights);
    }
}

uint64_t
CriticalPathAnalysis::criticalPath(ModuleId id) const
{
    if (id >= lengths.size())
        panic("CriticalPathAnalysis: module id out of range");
    return lengths[id];
}

uint64_t
CriticalPathAnalysis::programCriticalPath() const
{
    return criticalPath(prog->entry());
}

} // namespace msq
