#include "analysis/bounds.hh"

#include <cstddef>
#include <limits>

#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

double
optimalityGap(uint64_t makespan, uint64_t lower_bound)
{
    if (lower_bound == 0) {
        return makespan == 0 ? 1.0
                             : std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(makespan) /
           static_cast<double>(lower_bound);
}

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

/** The values set in @p marked, ascending. */
std::vector<uint64_t>
markedValues(const std::vector<bool> &marked)
{
    std::vector<uint64_t> values;
    for (size_t v = 0; v < marked.size(); ++v)
        if (marked[v])
            values.push_back(v);
    return values;
}

} // anonymous namespace

/*
 * Fernandez-style interval bound over [earliest-start, latest-finish]
 * windows at unit op weights: for window [a, b), every op whose window
 * is contained in it must run there, so if those ops' operand touches
 * need more than (b - a) steps of capacity, the critical path stretches
 * by the excess. Only the capacity depends on the machine, so the
 * profile keeps each window's load and span and evaluate() divides.
 */
LeafBoundProfile::LeafBoundProfile(const Module &mod, const DepDag &dag)
    : touches(operandTouches(mod)), numQubits(mod.numQubits())
{
    if (!mod.isLeaf())
        panic("computeLeafBounds: '" + mod.name() +
              "' is not a leaf module");
    const size_t n = dag.numNodes();
    if (n != mod.numOps())
        panic("LeafBoundProfile: DAG does not match '" + mod.name() + "'");
    if (n == 0)
        return;

    const std::vector<uint64_t> depth = dag.depthFromTop(); // ASAP finish
    const std::vector<uint64_t> height = dag.heightToBottom();
    const uint64_t cp = std::ranges::max(depth);
    criticalPath = cp;

    // Window of op i in step units: start depth - 1, exclusive finish
    // cp - height + 1. Both lie in [0, cp] and unit weights give
    // cp <= n, so bitmaps over [0, cp] collect the distinct endpoints in
    // ascending order without sorting.
    auto start_of = [&](size_t i) { return depth[i] - 1; };
    auto finish_of = [&](size_t i) { return cp - height[i] + 1; };
    std::vector<bool> is_start(cp + 1, false), is_finish(cp + 1, false);
    for (size_t i = 0; i < n; ++i) {
        is_start[start_of(i)] = true;
        is_finish[finish_of(i)] = true;
    }
    const std::vector<uint64_t> starts =
        sampleEndpoints(markedValues(is_start), maxIntervalEndpoints);
    const std::vector<uint64_t> finishes =
        sampleEndpoints(markedValues(is_finish), maxIntervalEndpoints);

    // Bucket each op once: by the first sampled finish that covers it
    // (rounding up to a later finish only *widens* the window it is
    // counted in — still sound) and by the last sampled start at or
    // before its own.
    const size_t num_finishes = finishes.size();
    std::vector<uint64_t> table(starts.size() * num_finishes, 0);
    for (size_t i = 0; i < n; ++i) {
        size_t finish_bucket = std::lower_bound(finishes.begin(),
                                                finishes.end(),
                                                finish_of(i)) -
                               finishes.begin();
        size_t start_bucket = std::upper_bound(starts.begin(), starts.end(),
                                               start_of(i)) -
                              starts.begin() - 1;
        uint64_t &cell = table[start_bucket * num_finishes + finish_bucket];
        cell = satAdd(cell, mod.op(i).operands.size());
    }

    // The op lies past window start starts[s] exactly when its start
    // bucket is >= s, so sweeping the starts from latest to earliest and
    // folding in one bucket row per start yields each start's
    // per-finish load; the prefix sum then gives the load of every
    // window [a, b).
    std::vector<uint64_t> load(num_finishes, 0);
    for (size_t s = starts.size(); s-- > 0;) {
        const uint64_t a = starts[s];
        for (size_t j = 0; j < num_finishes; ++j)
            load[j] = satAdd(load[j], table[s * num_finishes + j]);
        uint64_t running = 0;
        for (size_t j = 0; j < num_finishes; ++j) {
            running = satAdd(running, load[j]);
            const uint64_t b = finishes[j];
            if (b > a && running > b - a)
                windows.push_back({running, b - a});
        }
    }
}

MakespanBounds
LeafBoundProfile::evaluate(const MultiSimdArch &arch) const
{
    // Per-timestep qubit-touch capacity: k regions of at most d
    // operands each (validator invariant S006), and no qubit is touched
    // twice in one step (S007), so the module's own qubit count caps
    // the step too.
    const uint64_t cap = std::max<uint64_t>(
        std::min<uint64_t>(satMul(arch.k, arch.d), numQubits), 1);
    MakespanBounds bounds;
    bounds.criticalPath = criticalPath;
    bounds.resource = satCeilDiv(touches, cap);
    uint64_t max_excess = 0;
    for (const Window &window : windows) {
        uint64_t steps = satCeilDiv(window.load, cap);
        if (steps > window.span)
            max_excess = std::max(max_excess, steps - window.span);
    }
    bounds.interval = satAdd(criticalPath, max_excess);
    return bounds;
}

MakespanBounds
computeLeafBounds(const Module &mod, const MultiSimdArch &arch)
{
    // Unit weights: 1 step per op.
    return LeafBoundProfile(mod, DepDag::build(mod)).evaluate(arch);
}

MakespanBoundAnalysis::MakespanBoundAnalysis(const Program &prog,
                                             const MultiSimdArch &arch,
                                             CommMode mode,
                                             DiagnosticEngine *diags,
                                             const LeafBoundsFn &leaf_bounds)
    : prog(&prog), arch(arch), mode(mode),
      bounds_(prog.numModules()), areas_(prog.numModules(), 0)
{
    arch.validate();
    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t call_oh = MultiSimdArch::callOverhead(mode);
    const uint64_t max = std::numeric_limits<uint64_t>::max();

    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        if (mod.isLeaf()) {
            MakespanBounds b = leaf_bounds ? leaf_bounds(mod, id)
                                           : computeLeafBounds(mod, arch);
            // Region-cycle area: width >= 1 for the bound's length, and
            // every region-step holds at most d operand touches.
            areas_[id] = std::max(b.composite(),
                                  satCeilDiv(operandTouches(mod), arch.d));
            bounds_[id] = b;
            continue;
        }

        // Each op's weight on the critical path is the cycles the
        // coarse scheduler charges it. B006 fires where a weight or the
        // area first clips: the op's result is 2^64-1 and none of its
        // inputs was.
        MakespanBounds b;
        uint64_t area = 0;
        std::vector<uint64_t> weights(mod.numOps(), gate_cost);
        for (uint32_t i = 0; i < mod.numOps(); ++i) {
            const Operation &op = mod.op(i);
            const uint64_t area_before = area;
            bool clipped = false;
            if (op.isCall()) {
                const uint64_t callee_area = areas_[op.callee];
                const uint64_t callee_bound = bounds_[op.callee].composite();
                area = satAdd(area, satMul(op.repeat,
                                           satAdd(callee_area, call_oh)));
                weights[i] = satMul(op.repeat, satAdd(callee_bound, call_oh));
                clipped = (weights[i] == max && callee_bound != max) ||
                          (area == max && area_before != max &&
                           callee_area != max);
            } else {
                area = satAdd(area, gate_cost);
                clipped = area == max && area_before != max;
            }
            if (!clipped || diags == nullptr)
                continue;
            const std::string what =
                op.isCall()
                    ? csprintf("call to '%s' (repeat %llu)",
                               prog.module(op.callee).name().c_str(),
                               static_cast<unsigned long long>(op.repeat))
                    : std::string("gate accumulation");
            diags->warning(DiagCode::BoundRepeatOverflow,
                           "lower-bound composition for " + what +
                               " saturated at 2^64-1; the composed bound "
                               "remains sound but loose",
                           DiagContext{mod.name(), i, op.line});
        }

        b.criticalPath = criticalPathLength(mod, weights);
        b.resource = satCeilDiv(area, arch.k);
        bounds_[id] = b;
        areas_[id] = std::max(b.composite(), area);
    }
}

bool
MakespanBoundAnalysis::saturated() const
{
    return areaBound(prog->entry()) == std::numeric_limits<uint64_t>::max();
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
