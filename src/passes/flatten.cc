#include "passes/flatten.hh"

#include <string>

#include "analysis/resource_estimator.hh"
#include "support/logging.hh"

namespace msq {

void
FlattenPass::inlineCall(Module &caller, const Operation &call,
                        const Module &callee, size_t site_index,
                        std::vector<Operation> &out)
{
    if (!call.isCall())
        panic("FlattenPass::inlineCall: operation is not a call");
    if (call.operands.size() != callee.numParams())
        panic("FlattenPass::inlineCall: arity mismatch");

    // Map callee qubits to caller qubits: parameters bind to the call
    // arguments; locals get fresh caller ancilla (reused across repeats).
    std::vector<QubitId> qubit_map(callee.numQubits());
    for (size_t i = 0; i < callee.numParams(); ++i)
        qubit_map[i] = call.operands[i];
    const std::string prefix =
        callee.name() + '.' + std::to_string(site_index) + '.';
    for (size_t i = callee.numParams(); i < callee.numQubits(); ++i) {
        qubit_map[i] = caller.addLocal(
            prefix + callee.qubitName(static_cast<QubitId>(i)));
    }

    for (uint64_t rep = 0; rep < call.repeat; ++rep) {
        for (const auto &op : callee.ops()) {
            // Remapping in the output spares a copy through the stack.
            Operation &copy = out.emplace_back(op);
            for (auto &operand : copy.operands)
                operand = qubit_map[operand];
        }
    }
}

void
FlattenPass::run(Program &prog)
{
    ResourceEstimator resources(prog);

    // A call inlines when its callee is an inlinable leaf; a non-leaf
    // callee is only possible via noInline calls nested below, so the
    // call stays to preserve those blackboxes.
    auto inlines = [&](const Operation &op) {
        if (!op.isCall())
            return false;
        const Module &callee = prog.module(op.callee);
        return !callee.noInline() && callee.isLeaf();
    };

    // Bottom-up: a flattenable module's callees are at or below its own
    // total, so they have already been flattened into leaves (or are
    // noInline blackboxes we keep as calls).
    for (ModuleId id : prog.bottomUpOrder()) {
        Module &mod = prog.module(id);
        if (mod.isLeaf())
            continue;
        if (resources.totalGates(id) > threshold)
            continue;

        // Exact output size (at most the threshold), so the rewrite
        // never regrows.
        size_t size = 0;
        for (const auto &op : mod.ops())
            size += inlines(op) ? prog.module(op.callee).numOps() * op.repeat
                                : 1;

        std::vector<Operation> rewritten;
        rewritten.reserve(size);
        size_t site_index = 0;
        for (const auto &op : mod.ops()) {
            if (inlines(op))
                inlineCall(mod, op, prog.module(op.callee), site_index++,
                           rewritten);
            else
                rewritten.push_back(op);
        }
        mod.setOps(std::move(rewritten));
    }
}

} // namespace msq
