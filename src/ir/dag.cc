#include "ir/dag.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/** Panic unless @p weights is empty (unit weights) or one per op. */
void
checkWeights(std::span<const uint64_t> weights, size_t n)
{
    if (!weights.empty() && weights.size() != n)
        panic(csprintf("DepDag: %zu weights for %zu nodes", weights.size(),
                       n));
}

} // anonymous namespace

DepDag
DepDag::build(const Module &mod)
{
    DepDag dag;
    const auto n = static_cast<uint32_t>(mod.numOps());
    Csr &preds = dag.preds_;
    Csr &succs = dag.succs_;

    // An op's predecessors are the distinct last users of its operands
    // (last_use[q]: the latest op so far on qubit q, or -1), sorted so
    // each list ascends. succs.offsets[p + 1] counts p's successors.
    std::vector<int64_t> last_use(mod.numQubits(), -1);
    succs.offsets.assign(n + 1, 0);
    for (uint32_t i = 0; i < n; ++i) {
        const size_t first = preds.index.size();
        for (QubitId q : mod.op(i).operands) {
            if (last_use[q] >= 0)
                preds.index.push_back(static_cast<uint32_t>(last_use[q]));
            last_use[q] = i;
        }
        auto begin = preds.index.begin() + static_cast<ptrdiff_t>(first);
        std::sort(begin, preds.index.end());
        preds.index.erase(std::unique(begin, preds.index.end()),
                          preds.index.end());
        if (preds.index.size() == first)
            dag.roots_.push_back(i);
        for (size_t e = first; e < preds.index.size(); ++e)
            ++succs.offsets[preds.index[e] + 1];
        preds.offsets.push_back(preds.index.size());
    }

    // Prefix-sum the counts into offsets, then scatter each edge into
    // its source's run; visiting the targets in ascending order keeps
    // every run ascending.
    for (uint32_t i = 0; i < n; ++i)
        succs.offsets[i + 1] += succs.offsets[i];
    succs.index.resize(preds.index.size());
    std::vector<size_t> cursor(succs.offsets.begin(), succs.offsets.end() - 1);
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t p : preds[i])
            succs.index[cursor[p]++] = i;
    return dag;
}

std::vector<uint64_t>
DepDag::longestPaths(std::span<const uint64_t> weights, bool from_top) const
{
    const size_t n = numNodes();
    checkWeights(weights, n);
    // Program order is topological: sweep it forwards for depths and
    // backwards for heights.
    std::vector<uint64_t> out(n, 0);
    for (size_t step = 0; step < n; ++step) {
        const auto i = static_cast<uint32_t>(from_top ? step : n - 1 - step);
        uint64_t best = 0;
        for (uint32_t m : from_top ? preds(i) : succs(i))
            best = std::max(best, out[m]);
        out[i] = satAdd(best, weights.empty() ? 1 : weights[i]);
    }
    return out;
}

uint64_t
DepDag::criticalPathLength(std::span<const uint64_t> weights) const
{
    const std::vector<uint64_t> depth = depthFromTop(weights);
    return depth.empty() ? 0 : std::ranges::max(depth);
}

uint64_t
criticalPathLength(const Module &mod, std::span<const uint64_t> weights)
{
    const size_t n = mod.numOps();
    checkWeights(weights, n);
    std::vector<uint64_t> frontier(mod.numQubits(), 0);
    uint64_t longest = 0;
    for (size_t i = 0; i < n; ++i) {
        const auto &operands = mod.ops()[i].operands;
        uint64_t start = 0;
        for (QubitId q : operands)
            start = std::max(start, frontier[q]);
        const uint64_t finish =
            satAdd(start, weights.empty() ? 1 : weights[i]);
        for (QubitId q : operands)
            frontier[q] = finish;
        longest = std::max(longest, finish);
    }
    return longest;
}

std::vector<uint64_t>
DepDag::slack() const
{
    const std::vector<uint64_t> depth = depthFromTop();
    const std::vector<uint64_t> height = heightToBottom();
    const uint64_t cp = depth.empty() ? 0 : std::ranges::max(depth);
    std::vector<uint64_t> out(numNodes(), 0);
    for (uint32_t i = 0; i < numNodes(); ++i) {
        uint64_t through = depth[i] + height[i] - 1;
        if (through > cp)
            panic("slack: path through node exceeds critical path");
        out[i] = cp - through;
    }
    return out;
}

} // namespace msq
