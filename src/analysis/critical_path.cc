#include "analysis/critical_path.hh"

#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/saturate.hh"

namespace msq {

CriticalPathAnalysis::CriticalPathAnalysis(const Program &prog)
    : prog(&prog), lengths(prog.numModules(), 0)
{
    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        std::vector<uint64_t> weights;
        weights.reserve(mod.numOps());
        for (const Operation &op : mod.ops())
            weights.push_back(
                op.isCall() ? satMul(op.repeat, lengths[op.callee]) : 1);
        lengths[id] = DepDag::build(mod).criticalPathLength(weights);
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
