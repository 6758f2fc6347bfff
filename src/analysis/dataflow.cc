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

} // namespace msq
