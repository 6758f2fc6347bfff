#include "analysis/bounds.hh"

#include <cstddef>

#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/**
 * Endpoint budget of the interval bound: candidate window starts/ends
 * are sampled down to this many values per side. Any subset of windows
 * yields a sound bound; the budget caps the window scan at 64x64 while
 * in practice covering the congested windows (levels cluster).
 */
constexpr size_t maxIntervalEndpoints = 64;

/** Total qubit-operand touches across all ops of @p mod. */
uint64_t
operandTouches(const Module &mod)
{
    uint64_t touches = 0;
    for (const auto &op : mod.ops())
        touches = satAdd(touches, op.operands.size());
    return touches;
}

/**
 * Per-timestep qubit-touch capacity of @p arch on @p mod: k regions of
 * at most d operands each (validator invariant S006), and no qubit is
 * touched twice in one step (S007), so the module's own qubit count
 * caps the step too.
 */
uint64_t
touchCapacity(const Module &mod, const MultiSimdArch &arch)
{
    uint64_t cap = std::min<uint64_t>(satMul(arch.k, arch.d),
                                      mod.numQubits());
    return std::max<uint64_t>(cap, 1);
}

/** Evenly sample @p values (sorted, unique) down to @p budget entries,
 * always keeping the first and last. */
std::vector<uint64_t>
sampleEndpoints(const std::vector<uint64_t> &values, size_t budget)
{
    if (values.size() <= budget)
        return values;
    std::vector<uint64_t> out;
    out.reserve(budget);
    for (size_t i = 0; i < budget; ++i) {
        size_t index = i * (values.size() - 1) / (budget - 1);
        if (out.empty() || out.back() != values[index])
            out.push_back(values[index]);
    }
    return out;
}

/**
 * Fernandez-style interval bound over [earliest-start, latest-finish]
 * windows at unit op weights: for window [a, b), every op whose window
 * is contained in it must run there, so if those ops' operand touches
 * need more than (b - a) steps of capacity, the critical path stretches
 * by the excess.
 */
uint64_t
intervalBound(const DepDag &dag, const Module &mod, uint64_t cp,
              uint64_t cap)
{
    const size_t n = dag.numNodes();
    auto depth = dag.depthFromTop();     // ASAP finish (unit weights)
    auto height = dag.heightToBottom();  // incl. own weight

    // Window of op i in step units: start es = depth - 1, exclusive
    // finish lf = cp - height + 1.
    std::vector<uint64_t> es(n), lf(n);
    std::vector<uint64_t> starts, finishes;
    starts.reserve(n);
    finishes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        es[i] = depth[i] - 1;
        lf[i] = cp - height[i] + 1;
        starts.push_back(es[i]);
        finishes.push_back(lf[i]);
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    std::sort(finishes.begin(), finishes.end());
    finishes.erase(std::unique(finishes.begin(), finishes.end()),
                   finishes.end());
    starts = sampleEndpoints(starts, maxIntervalEndpoints);
    finishes = sampleEndpoints(finishes, maxIntervalEndpoints);

    // Bucket each op once: by the first sampled finish that covers it
    // (rounding up to a later finish only *widens* the window it is
    // counted in — still sound) and by the last sampled start at or
    // before its own. The op lies past window start starts[s] exactly
    // when its start bucket is >= s, so sweeping the starts from latest
    // to earliest and folding in one bucket row per start yields each
    // start's per-finish load; the prefix sum then gives the load of
    // every window [a, b).
    const size_t num_finishes = finishes.size();
    std::vector<uint64_t> table(starts.size() * num_finishes, 0);
    for (size_t i = 0; i < n; ++i) {
        size_t finish_bucket =
            std::lower_bound(finishes.begin(), finishes.end(), lf[i]) -
            finishes.begin();
        size_t start_bucket =
            std::upper_bound(starts.begin(), starts.end(), es[i]) -
            starts.begin() - 1;
        uint64_t &cell = table[start_bucket * num_finishes + finish_bucket];
        cell = satAdd(cell, mod.op(i).operands.size());
    }

    uint64_t max_excess = 0;
    std::vector<uint64_t> load(num_finishes, 0);
    for (size_t s = starts.size(); s-- > 0;) {
        const uint64_t a = starts[s];
        for (size_t j = 0; j < num_finishes; ++j)
            load[j] = satAdd(load[j], table[s * num_finishes + j]);
        uint64_t running = 0;
        for (size_t j = 0; j < num_finishes; ++j) {
            running = satAdd(running, load[j]);
            const uint64_t b = finishes[j];
            if (b <= a)
                continue;
            uint64_t steps = satCeilDiv(running, cap);
            uint64_t span = b - a;
            if (steps > span)
                max_excess = std::max(max_excess, steps - span);
        }
    }
    return satAdd(cp, max_excess);
}

} // anonymous namespace

MakespanBounds
computeLeafBounds(const Module &mod, const MultiSimdArch &arch)
{
    if (!mod.isLeaf())
        panic("computeLeafBounds: '" + mod.name() +
              "' is not a leaf module");
    MakespanBounds bounds;
    if (mod.numOps() == 0)
        return bounds;

    DepDag dag = DepDag::build(mod); // unit weights: 1 step per op
    bounds.criticalPath = dag.criticalPathLength();

    const uint64_t cap = touchCapacity(mod, arch);
    bounds.resource = satCeilDiv(operandTouches(mod), cap);
    bounds.interval = intervalBound(dag, mod, bounds.criticalPath, cap);
    return bounds;
}

MakespanBoundAnalysis::MakespanBoundAnalysis(const Program &prog,
                                             const MultiSimdArch &arch,
                                             CommMode mode,
                                             DiagnosticEngine *diags)
    : prog(&prog), arch(arch), mode(mode),
      bounds_(prog.numModules()), areas_(prog.numModules(), 0)
{
    arch.validate();
    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t call_oh = MultiSimdArch::callOverhead(mode);

    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        if (mod.isLeaf()) {
            MakespanBounds b = computeLeafBounds(mod, arch);
            // Region-cycle area: width >= 1 for the bound's length, and
            // every region-step holds at most d operand touches.
            areas_[id] = std::max(b.composite(),
                                  satCeilDiv(operandTouches(mod), arch.d));
            bounds_[id] = b;
            continue;
        }

        MakespanBounds b;
        uint64_t area = 0;
        for (uint32_t i = 0; i < mod.numOps(); ++i) {
            const Operation &op = mod.op(i);
            bool clipped = false;
            if (op.isCall()) {
                b.saturated |= bounds_[op.callee].saturated;
                area = satAdd(
                    area,
                    satMul(op.repeat,
                           satAdd(areas_[op.callee], call_oh, clipped),
                           clipped),
                    clipped);
                satMul(op.repeat,
                       satAdd(bounds_[op.callee].composite(), call_oh,
                              clipped),
                       clipped);
            } else {
                area = satAdd(area, gate_cost, clipped);
            }
            if (!clipped)
                continue;
            b.saturated = true;
            saturated_ = true;
            if (diags != nullptr) {
                const std::string what =
                    op.isCall()
                        ? csprintf("call to '%s' (repeat %llu)",
                                   prog.module(op.callee).name().c_str(),
                                   static_cast<unsigned long long>(
                                       op.repeat))
                        : std::string("gate accumulation");
                diags->warning(
                    DiagCode::BoundRepeatOverflow,
                    "lower-bound composition for " + what +
                        " saturated at 2^64-1; the composed bound "
                        "remains sound but loose",
                    DiagContext{mod.name(), i, op.line});
            }
        }

        DepDag dag =
            DepDag::build(mod, [&](const Operation &op) -> uint64_t {
                if (op.isCall()) {
                    return satMul(
                        op.repeat,
                        satAdd(bounds_[op.callee].composite(), call_oh));
                }
                return gate_cost;
            });
        b.criticalPath = dag.criticalPathLength();
        b.resource = satCeilDiv(area, arch.k);
        bounds_[id] = b;
        areas_[id] = std::max(b.composite(), area);
        saturated_ |= b.saturated;
    }
}

const MakespanBounds &
MakespanBoundAnalysis::bounds(ModuleId id) const
{
    if (id >= bounds_.size())
        panic("MakespanBoundAnalysis: module id out of range");
    return bounds_[id];
}

uint64_t
MakespanBoundAnalysis::programLowerBound() const
{
    return lowerBound(prog->entry());
}

uint64_t
MakespanBoundAnalysis::lowerBoundAt(ModuleId id, unsigned width) const
{
    if (id >= bounds_.size())
        panic("MakespanBoundAnalysis: module id out of range");
    if (width < 1)
        panic("MakespanBoundAnalysis: width must be >= 1");
    const Module &mod = prog->module(id);
    if (mod.isLeaf()) {
        MultiSimdArch sub = arch;
        sub.k = width;
        return computeLeafBounds(mod, sub).composite();
    }
    return std::max(bounds_[id].criticalPath,
                    satCeilDiv(areas_[id], width));
}

uint64_t
MakespanBoundAnalysis::areaBound(ModuleId id) const
{
    if (id >= areas_.size())
        panic("MakespanBoundAnalysis: module id out of range");
    return areas_[id];
}

} // namespace msq
