#include "analysis/resource_estimator.hh"

#include <algorithm>

#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

Count
GateMix::count(GateKind kind) const
{
    return counts[static_cast<size_t>(kind)];
}

Count
GateMix::tCount() const
{
    return count(GateKind::T) + count(GateKind::Tdag);
}

Count
GateMix::twoQubitCount() const
{
    return count(GateKind::CNOT) + count(GateKind::CZ);
}

Count
GateMix::total() const
{
    Count sum;
    for (Count c : counts)
        sum += c;
    return sum;
}

ResourceEstimator::ResourceEstimator(const Program &prog,
                                     DiagnosticEngine *diags,
                                     LeafLengthFn leaf_lengths)
    : prog(&prog), leafLengths(std::move(leaf_lengths)),
      order(prog.bottomUpOrder()), mixes(prog.numModules()),
      demand(prog.numModules(), 0), runs(prog.numModules())
{
    // Callees precede callers in `order`, so one pass suffices. The
    // module's own gates enter its mix from the per-kind counts (a call
    // never counts as a gate); each call adds repeat x the callee's mix.
    for (ModuleId id : order) {
        const Module &mod = prog.module(id);
        GateMix &mix = mixes[id];
        for (size_t k = 0; k < numGateKinds; ++k)
            if (static_cast<GateKind>(k) != GateKind::Call)
                mix.counts[k] = mod.localCount(static_cast<GateKind>(k));
        uint64_t deepest = 0;
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            const GateMix &callee = mixes[op.callee];
            for (size_t k = 0; k < numGateKinds; ++k)
                mix.counts[k] += op.repeat * callee.counts[k];
            deepest = std::max(deepest, demand[op.callee] -
                                            prog.module(op.callee)
                                                .numParams());
        }
        demand[id] = mod.numQubits() + deepest;
    }

    // Top-down over the same order: callers before callees. B006 fires
    // where a product first clips, not again below it.
    runs[prog.entry()] = 1;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const Module &mod = prog.module(*it);
        const Count caller = runs[*it];
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            Count &callee = runs[op.callee];
            const bool was_saturated = callee.saturated();
            callee += caller * op.repeat;
            if (diags == nullptr || !callee.saturated() || was_saturated ||
                caller.saturated())
                continue;
            diags->warning(
                DiagCode::BoundRepeatOverflow,
                csprintf("invocation count of '%s' saturated at 2^128-1 "
                         "(caller runs %s time(s), call repeat %llu); "
                         "downstream aggregates are lower bounds",
                         prog.module(op.callee).name().c_str(),
                         caller.str().c_str(),
                         static_cast<unsigned long long>(op.repeat)),
                DiagContext{mod.name(), index, op.line});
        }
    }
}

const GateMix &
ResourceEstimator::mix(ModuleId id) const
{
    if (id >= mixes.size())
        panic("ResourceEstimator: module id out of range");
    return mixes[id];
}

uint64_t
ResourceEstimator::criticalPath(ModuleId id) const
{
    if (id >= mixes.size())
        panic("ResourceEstimator: module id out of range");
    // Callees first, as in the constructor: a gate weighs 1, a call its
    // callee's critical path times its repeat count.
    std::call_once(swept, [this] {
        lengths.assign(mixes.size(), 0);
        std::vector<uint64_t> weights;
        for (ModuleId m : order) {
            const Module &mod = prog->module(m);
            if (mod.isLeaf()) {
                lengths[m] = leafLengths ? leafLengths(mod, m)
                                         : criticalPathLength(mod);
                continue;
            }
            weights.assign(mod.numOps(), 1);
            for (uint32_t index : mod.callOps()) {
                const Operation &op = mod.ops()[index];
                weights[index] = satMul(op.repeat, lengths[op.callee]);
            }
            lengths[m] = criticalPathLength(mod, weights);
        }
    });
    return lengths[id];
}

uint64_t
ResourceEstimator::qubitsNeeded(ModuleId id) const
{
    if (id >= demand.size())
        panic("ResourceEstimator: module id out of range");
    return demand[id];
}

Count
ResourceEstimator::invocations(ModuleId id) const
{
    if (id >= runs.size())
        panic("ResourceEstimator: module id out of range");
    return runs[id];
}

const std::vector<uint64_t> &
ModuleHistogram::bucketBounds()
{
    // Fig. 5 ranges: 0-1k, 1k-5k, 5k-10k, 10k-50k, 50k-100k, 100k-150k,
    // 150k-1M, 1M-2M, 2M-8M, 8M-20M, >20M.
    static const std::vector<uint64_t> bounds = {
        1'000,      5'000,      10'000,     50'000,    100'000,
        150'000,    1'000'000,  2'000'000,  8'000'000, 20'000'000,
    };
    return bounds;
}

std::string
ModuleHistogram::bucketLabel(size_t index)
{
    auto human = [](uint64_t v) -> std::string {
        if (v >= 1'000'000)
            return std::to_string(v / 1'000'000) + "M";
        if (v >= 1'000)
            return std::to_string(v / 1'000) + "k";
        return std::to_string(v);
    };
    const auto &bounds = bucketBounds();
    if (index >= bounds.size())
        return ">" + human(bounds.back());
    if (index == 0)
        return "0 - " + human(bounds[0]);
    return human(bounds[index - 1]) + " - " + human(bounds[index]);
}

ModuleHistogram::ModuleHistogram(const ResourceEstimator &estimator)
    : counts_(bucketBounds().size() + 1, 0)
{
    for (ModuleId id : estimator.analyzedModules()) {
        Count gates = estimator.totalGates(id);
        const auto &bounds = bucketBounds();
        size_t bucket = std::upper_bound(bounds.begin(), bounds.end(),
                                         gates == 0 ? 0 : gates - 1) -
                        bounds.begin();
        ++counts_[bucket];
        ++total;
    }
}

} // namespace msq
