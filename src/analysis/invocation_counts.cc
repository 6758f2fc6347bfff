#include "analysis/invocation_counts.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

InvocationCountAnalysis::InvocationCountAnalysis(const Program &prog,
                                                 DiagnosticEngine *diags)
    : prog(&prog), counts(prog.numModules(), 0)
{
    // Top-down: callers before callees.
    auto order = prog.bottomUpOrder();
    std::reverse(order.begin(), order.end());
    counts[prog.entry()] = 1;
    for (ModuleId id : order) {
        const Module &mod = prog.module(id);
        for (uint32_t i : mod.callOps()) {
            const Operation &op = mod.ops()[i];
            bool clipped = false;
            counts[op.callee] = satAdd(
                counts[op.callee], satMul(counts[id], op.repeat, clipped),
                clipped);
            if (!clipped)
                continue;
            saturated_ = true;
            if (diags != nullptr) {
                diags->warning(
                    DiagCode::BoundRepeatOverflow,
                    csprintf("invocation count of '%s' saturated at "
                             "2^64-1 (caller runs %llu time(s), call "
                             "repeat %llu); downstream aggregates are "
                             "lower bounds",
                             prog.module(op.callee).name().c_str(),
                             static_cast<unsigned long long>(counts[id]),
                             static_cast<unsigned long long>(op.repeat)),
                    DiagContext{mod.name(), i, op.line});
            }
        }
    }
}

uint64_t
InvocationCountAnalysis::invocations(ModuleId id) const
{
    if (id >= counts.size())
        panic("InvocationCountAnalysis: module id out of range");
    return counts[id];
}

} // namespace msq
