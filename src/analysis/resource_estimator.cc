#include "analysis/resource_estimator.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

ResourceEstimator::ResourceEstimator(const Program &prog)
    : prog(&prog), order(prog.bottomUpOrder()),
      totals(prog.numModules(), 0)
{
    // Callees precede callers in `order`, so one pass suffices. Every
    // gate counts 1, and saturating addition is order-independent, so
    // the gates enter as one count ahead of the calls. The sticky flag
    // records whether any total clipped (saturated()).
    for (ModuleId id : order) {
        const Module &mod = prog.module(id);
        uint64_t total = mod.localGateCount();
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            total = satAdd(total,
                           satMul(op.repeat, totals[op.callee], saturated_),
                           saturated_);
        }
        totals[id] = total;
    }
}

uint64_t
ResourceEstimator::totalGates(ModuleId id) const
{
    if (id >= totals.size())
        panic("ResourceEstimator: module id out of range");
    return totals[id];
}

uint64_t
ResourceEstimator::programGates() const
{
    return totalGates(prog->entry());
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
        uint64_t gates = estimator.totalGates(id);
        moduleTotals.push_back(gates);
        const auto &bounds = bucketBounds();
        size_t bucket = std::upper_bound(bounds.begin(), bounds.end(),
                                         gates == 0 ? 0 : gates - 1) -
                        bounds.begin();
        ++counts_[bucket];
        ++total;
    }
}

double
ModuleHistogram::fraction(size_t index) const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(count(index)) / static_cast<double>(total);
}

double
ModuleHistogram::fractionAtOrBelow(uint64_t threshold) const
{
    if (total == 0)
        return 0.0;
    uint64_t below = 0;
    for (uint64_t gates : moduleTotals)
        if (gates <= threshold)
            ++below;
    return static_cast<double>(below) / static_cast<double>(total);
}

} // namespace msq
