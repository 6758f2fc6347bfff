#include "analysis/dataflow.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

size_t
QubitSet::count() const
{
    size_t total = 0;
    for (uint64_t w : words) {
        while (w) {
            w &= w - 1;
            ++total;
        }
    }
    return total;
}

bool
QubitSet::uniteWith(const QubitSet &other)
{
    bool changed = false;
    size_t n = std::min(words.size(), other.words.size());
    for (size_t i = 0; i < n; ++i) {
        uint64_t merged = words[i] | other.words[i];
        changed |= merged != words[i];
        words[i] = merged;
    }
    return changed;
}

bool
QubitSet::intersectWith(const QubitSet &other)
{
    bool changed = false;
    for (size_t i = 0; i < words.size(); ++i) {
        uint64_t in = i < other.words.size() ? other.words[i] : 0;
        uint64_t merged = words[i] & in;
        changed |= merged != words[i];
        words[i] = merged;
    }
    return changed;
}

DataflowResult
solveDataflow(const Module &mod, const DepDag &dag,
              const DataflowProblem &problem)
{
    size_t n = dag.numNodes();
    if (n != mod.numOps())
        panic(csprintf("solveDataflow: DAG (%zu nodes) does not match "
                       "module %s (%zu ops)",
                       n, mod.name().c_str(), mod.numOps()));

    DataflowResult result;
    result.before.assign(n, QubitSet(mod.numQubits()));
    result.after.assign(n, QubitSet(mod.numQubits()));

    // Program order is topological (ir/dag.hh), so one pass in program
    // order (reversed when backward) visits every node after its
    // dataflow predecessors.
    bool forward = problem.direction() == DataflowDirection::Forward;
    for (size_t i = 0; i < n; ++i) {
        const auto node = static_cast<uint32_t>(forward ? i : n - 1 - i);
        // Meet the states of all dataflow predecessors (DAG preds when
        // forward, succs when backward); boundary nodes take the
        // problem's boundary state.
        std::span<const uint32_t> ins =
            forward ? dag.preds(node) : dag.succs(node);
        if (ins.empty()) {
            result.before[node] = problem.boundary(mod);
        } else if (problem.meet() == DataflowMeet::Union) {
            for (uint32_t in : ins)
                result.before[node].uniteWith(result.after[in]);
        } else {
            result.before[node] = result.after[ins[0]];
            for (size_t i = 1; i < ins.size(); ++i)
                result.before[node].intersectWith(result.after[ins[i]]);
        }
        result.after[node] = result.before[node];
        problem.transfer(mod, node, result.after[node]);
    }
    return result;
}

std::vector<ModuleId>
acyclicBottomUpOrder(const Program &prog, bool *cyclic)
{
    if (cyclic)
        *cyclic = false;
    std::vector<ModuleId> order;
    if (prog.entry() == invalidModule ||
        prog.entry() >= prog.numModules())
        return order;

    // Reachability sweep from the entry, following valid callees only.
    std::vector<bool> reachable(prog.numModules(), false);
    std::vector<ModuleId> work{prog.entry()};
    reachable[prog.entry()] = true;
    size_t num_reachable = 1;
    while (!work.empty()) {
        const Module &mod = prog.module(work.back());
        work.pop_back();
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            if (op.callee >= prog.numModules())
                continue;
            if (!reachable[op.callee]) {
                reachable[op.callee] = true;
                ++num_reachable;
                work.push_back(op.callee);
            }
        }
    }

    // Kahn's algorithm, callees-first: a module is emitted once every
    // distinct callee has been. Modules on a call cycle never drain and
    // are left out of the order.
    std::vector<std::vector<ModuleId>> callers(prog.numModules());
    std::vector<uint32_t> pending(prog.numModules(), 0);
    for (ModuleId m = 0; m < prog.numModules(); ++m) {
        if (!reachable[m])
            continue;
        const Module &mod = prog.module(m);
        std::vector<ModuleId> callees;
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            if (op.callee >= prog.numModules())
                continue;
            if (std::find(callees.begin(), callees.end(), op.callee) ==
                callees.end())
                callees.push_back(op.callee);
        }
        pending[m] = callees.size();
        for (ModuleId c : callees)
            callers[c].push_back(m);
    }

    std::vector<ModuleId> ready;
    for (ModuleId m = 0; m < prog.numModules(); ++m)
        if (reachable[m] && pending[m] == 0)
            ready.push_back(m);
    while (!ready.empty()) {
        ModuleId m = ready.back();
        ready.pop_back();
        order.push_back(m);
        for (ModuleId caller : callers[m])
            if (--pending[caller] == 0)
                ready.push_back(caller);
    }

    if (order.size() < num_reachable && cyclic)
        *cyclic = true;
    return order;
}

} // namespace msq
