#include "analysis/schedule_summary.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

uint64_t
ResourceSummary::computeCycles() const
{
    if (saturated)
        return 0;
    if (serialCycles < commCycles)
        panic("ResourceSummary: commCycles exceeds serialCycles");
    return serialCycles - commCycles;
}

double
ResourceSummary::meanRegionOccupancy() const
{
    if (activeRegionSteps == 0)
        return 0.0;
    return static_cast<double>(operandTouches) /
           static_cast<double>(activeRegionSteps);
}

double
ResourceSummary::commFraction() const
{
    if (serialCycles == 0)
        return 0.0;
    return static_cast<double>(commCycles) /
           static_cast<double>(serialCycles);
}

uint64_t
ResourceSummary::occupancySteps() const
{
    uint64_t total = 0;
    for (uint64_t count : occupancy)
        total = satAdd(total, count);
    return total;
}

const std::vector<ResourceSummary::Field> &
ResourceSummary::fields()
{
    static const std::vector<Field> all = {
        {"gateOps", &ResourceSummary::gateOps},
        {"serialCycles", &ResourceSummary::serialCycles},
        {"commCycles", &ResourceSummary::commCycles},
        {"teleportMoves", &ResourceSummary::teleportMoves},
        {"blockingTeleports", &ResourceSummary::blockingTeleports},
        {"localMoves", &ResourceSummary::localMoves},
        {"stepsWithBlockingMove", &ResourceSummary::stepsWithBlockingMove},
        {"stepsWithOnlyLocalMoves",
         &ResourceSummary::stepsWithOnlyLocalMoves},
        {"activeRegionSteps", &ResourceSummary::activeRegionSteps},
        {"operandTouches", &ResourceSummary::operandTouches},
        {"peakRegionOccupancy", &ResourceSummary::peakRegionOccupancy},
        {"peakBlockingMovesPerStep",
         &ResourceSummary::peakBlockingMovesPerStep},
        {"peakActiveRegions", &ResourceSummary::peakActiveRegions},
        {"callInvocations", &ResourceSummary::callInvocations},
        {"interCoreTeleports", &ResourceSummary::interCoreTeleports},
    };
    return all;
}

const std::vector<uint64_t> &
ResourceSummary::occupancyBounds()
{
    // Powers of two up to the paper's largest machine (k = 128, Fig. 9);
    // wider steps land in the overflow bucket.
    static const std::vector<uint64_t> bounds = {1, 2, 4, 8,
                                                 16, 32, 64, 128};
    return bounds;
}

size_t
ResourceSummary::numOccupancyBuckets()
{
    return occupancyBounds().size() + 1;
}

size_t
ResourceSummary::occupancyBucket(uint64_t active_regions)
{
    const auto &bounds = occupancyBounds();
    return static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(),
                         active_regions == 0 ? 0 : active_regions - 1) -
        bounds.begin());
}

std::string
ResourceSummary::occupancyLabel(size_t index)
{
    const auto &bounds = occupancyBounds();
    if (index >= bounds.size())
        return ">" + std::to_string(bounds.back());
    if (index == 0)
        return "0-" + std::to_string(bounds[0]);
    uint64_t lo = bounds[index - 1] + 1;
    uint64_t hi = bounds[index];
    if (lo == hi)
        return std::to_string(lo);
    return std::to_string(lo) + "-" + std::to_string(hi);
}

namespace {

/**
 * Streaming fold of one annotated leaf schedule. Every counter is
 * bounded by the materialized buffer's element counts, so plain 64-bit
 * arithmetic cannot overflow here; saturation only enters at the
 * composition level where repeat products multiply these values.
 */
class SummarySink : public ScheduleSink
{
  public:
    /** @param cost topology cost model for multi-core folds; null keeps
     * the flat machine's historical per-step formula bit-for-bit. */
    explicit SummarySink(uint64_t epr_bandwidth,
                         const MovePhaseCostModel *cost = nullptr)
        : bw(epr_bandwidth), cost(cost)
    {
        sum.occupancy.assign(ResourceSummary::numOccupancyBuckets(), 0);
    }

    void
    beginSchedule(const LeafSchedule &sched) override
    {
        mod = &sched.module();
    }

    void
    beginStep(const TimestepView & /*step*/) override
    {
        stepBlocking = 0;
        stepHasLocal = false;
    }

    void
    slot(const RegionSlotView &slot) override
    {
        uint64_t operands = 0;
        for (uint32_t op_index : slot.ops()) {
            ++sum.gateOps;
            operands += mod->op(op_index).operands.size();
        }
        // Mirror the annotator: a region counts as active only when it
        // touches operands this step (validated gates always do).
        if (operands > 0) {
            ++sum.activeRegionSteps;
            sum.operandTouches += operands;
            sum.peakRegionOccupancy =
                std::max(sum.peakRegionOccupancy, operands);
        }
    }

    void
    move(const Move &move) override
    {
        if (move.isLocal()) {
            ++sum.localMoves;
            stepHasLocal = true;
        } else {
            ++sum.teleportMoves;
            if (cost && cost->interCore(move))
                ++sum.interCoreTeleports;
            if (move.blocking) {
                ++sum.blockingTeleports;
                ++stepBlocking;
            }
        }
    }

    void
    endStep(const TimestepView &step) override
    {
        // Movement-phase cost. On the flat machine, recomputed from
        // this pass's own move classification (arch/schedule.cc
        // movePhaseCycles semantics): blocking teleports cost full
        // 4-cycle phases, serialized by a finite EPR bandwidth; a
        // local-only phase costs one cycle. Multi-core phases route
        // through the shared MovePhaseCostModel — the same model the
        // CommunicationAnalyzer prices its steps with, which E001
        // checks.
        if (cost) {
            MoveSpan m = step.moves();
            sum.commCycles += cost->cycles(m.begin(), m.end());
            if (stepBlocking > 0)
                ++sum.stepsWithBlockingMove;
            else if (stepHasLocal)
                ++sum.stepsWithOnlyLocalMoves;
        } else if (stepBlocking > 0) {
            ++sum.stepsWithBlockingMove;
            uint64_t phases =
                bw == unbounded ? 1 : (stepBlocking + bw - 1) / bw;
            sum.commCycles += phases * MultiSimdArch::teleportCycles;
        } else if (stepHasLocal) {
            ++sum.stepsWithOnlyLocalMoves;
            sum.commCycles += MultiSimdArch::localMoveCycles;
        }
        sum.peakBlockingMovesPerStep =
            std::max(sum.peakBlockingMovesPerStep, stepBlocking);

        const uint64_t active = step.activeRegions();
        sum.peakActiveRegions = std::max(sum.peakActiveRegions, active);
        ++sum.occupancy[ResourceSummary::occupancyBucket(active)];
        ++steps;
    }

    void
    endSchedule() override
    {
        sum.serialCycles = steps + sum.commCycles;
    }

    ResourceSummary take() { return std::move(sum); }

  private:
    const Module *mod = nullptr;
    uint64_t bw;
    const MovePhaseCostModel *cost;
    ResourceSummary sum;
    uint64_t steps = 0;
    uint64_t stepBlocking = 0;
    bool stepHasLocal = false;
};

} // anonymous namespace

ResourceSummary
summarizeLeafSchedule(const LeafSchedule &sched, uint64_t epr_bandwidth)
{
    if (epr_bandwidth == 0)
        panic("summarizeLeafSchedule: EPR bandwidth of 0 cannot move "
              "anything; MultiSimdArch::validate() should have rejected "
              "this configuration");
    SummarySink sink(epr_bandwidth);
    sched.stream(sink);
    return sink.take();
}

ResourceSummary
summarizeLeafSchedule(const LeafSchedule &sched, const MultiSimdArch &arch)
{
    if (!arch.topology.multiCore())
        return summarizeLeafSchedule(sched, arch.eprBandwidth);
    MovePhaseCostModel cost(arch);
    SummarySink sink(arch.eprBandwidth, &cost);
    sched.stream(sink);
    return sink.take();
}

ScheduleSummaryAnalysis::ScheduleSummaryAnalysis(
    const Program &prog, CommMode mode, const LeafSummaryFn &leaf_summary,
    DiagnosticEngine *diags)
    : prog(&prog), mode(mode), order(prog.bottomUpOrder()),
      summaries(prog.numModules())
{
    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t gate_comm = gate_cost - MultiSimdArch::gateCycles;
    const uint64_t call_oh = MultiSimdArch::callOverhead(mode);
    const size_t buckets = ResourceSummary::numOccupancyBuckets();

    // Callees precede callers in `order`, so one pass suffices.
    for (ModuleId id : order) {
        const Module &mod = prog.module(id);
        if (mod.isLeaf()) {
            ResourceSummary leaf = leaf_summary(mod, id);
            if (leaf.occupancy.size() != buckets)
                leaf.occupancy.resize(buckets, 0);
            saturated_ |= leaf.saturated;
            summaries[id] = std::move(leaf);
            continue;
        }

        ResourceSummary s;
        s.occupancy.assign(buckets, 0);
        bool sat = false;
        for (size_t i = 0; i < mod.numOps(); ++i) {
            const Operation &op = mod.op(i);
            if (!op.isCall()) {
                s.gateOps = satAdd(s.gateOps, 1, sat);
                s.serialCycles = satAdd(s.serialCycles, gate_cost, sat);
                s.commCycles = satAdd(s.commCycles, gate_comm, sat);
                continue;
            }

            const ResourceSummary &c = summaries[op.callee];
            const uint64_t r = op.repeat;
            // Track whether *this call site's* products clip, so the
            // warning lands on the line that overflowed (B006 idiom).
            bool site = false;
            s.gateOps = satAdd(s.gateOps, satMul(r, c.gateOps, site),
                               site);
            s.serialCycles = satAdd(
                s.serialCycles,
                satMul(r, satAdd(c.serialCycles, call_oh, site), site),
                site);
            s.commCycles = satAdd(
                s.commCycles,
                satMul(r, satAdd(c.commCycles, call_oh, site), site),
                site);
            s.teleportMoves = satAdd(
                s.teleportMoves, satMul(r, c.teleportMoves, site), site);
            s.blockingTeleports =
                satAdd(s.blockingTeleports,
                       satMul(r, c.blockingTeleports, site), site);
            s.localMoves = satAdd(s.localMoves,
                                  satMul(r, c.localMoves, site), site);
            s.stepsWithBlockingMove =
                satAdd(s.stepsWithBlockingMove,
                       satMul(r, c.stepsWithBlockingMove, site), site);
            s.stepsWithOnlyLocalMoves =
                satAdd(s.stepsWithOnlyLocalMoves,
                       satMul(r, c.stepsWithOnlyLocalMoves, site), site);
            s.activeRegionSteps =
                satAdd(s.activeRegionSteps,
                       satMul(r, c.activeRegionSteps, site), site);
            s.operandTouches =
                satAdd(s.operandTouches,
                       satMul(r, c.operandTouches, site), site);
            s.interCoreTeleports =
                satAdd(s.interCoreTeleports,
                       satMul(r, c.interCoreTeleports, site), site);
            s.callInvocations = satAdd(
                s.callInvocations,
                satMul(r, satAdd(c.callInvocations, 1, site), site),
                site);
            for (size_t b = 0; b < buckets; ++b) {
                s.occupancy[b] =
                    satAdd(s.occupancy[b],
                           satMul(r, c.occupancy[b], site), site);
            }
            s.peakRegionOccupancy =
                std::max(s.peakRegionOccupancy, c.peakRegionOccupancy);
            s.peakBlockingMovesPerStep =
                std::max(s.peakBlockingMovesPerStep,
                         c.peakBlockingMovesPerStep);
            s.peakActiveRegions =
                std::max(s.peakActiveRegions, c.peakActiveRegions);

            if (site && diags != nullptr) {
                diags->warning(
                    DiagCode::EstimateSaturated,
                    csprintf("summary of call to '%s' (repeat %llu) "
                             "saturated at 2^64-1; dependent estimate "
                             "fields are poisoned, exactness cannot be "
                             "verified",
                             prog.module(op.callee).name().c_str(),
                             static_cast<unsigned long long>(r)),
                    DiagContext{mod.name(),
                                static_cast<uint32_t>(i)});
            }
            sat |= site;
            sat |= c.saturated;
        }
        s.saturated = sat;
        saturated_ |= sat;
        summaries[id] = std::move(s);
    }
}

const ResourceSummary &
ScheduleSummaryAnalysis::summary(ModuleId id) const
{
    if (id >= summaries.size() || summaries[id].occupancy.empty())
        panic("ScheduleSummaryAnalysis: module not analyzed");
    return summaries[id];
}

const ResourceSummary &
ScheduleSummaryAnalysis::programSummary() const
{
    return summary(prog->entry());
}

ResourceSummary
ScheduleSummaryAnalysis::localContribution(ModuleId id) const
{
    const Module &mod = prog->module(id);
    if (mod.isLeaf())
        return summary(id);

    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t gate_comm = gate_cost - MultiSimdArch::gateCycles;
    const uint64_t call_oh = MultiSimdArch::callOverhead(mode);

    ResourceSummary s;
    s.occupancy.assign(ResourceSummary::numOccupancyBuckets(), 0);
    bool sat = false;
    for (const Operation &op : mod.ops()) {
        if (!op.isCall()) {
            s.gateOps = satAdd(s.gateOps, 1, sat);
            s.serialCycles = satAdd(s.serialCycles, gate_cost, sat);
            s.commCycles = satAdd(s.commCycles, gate_comm, sat);
            continue;
        }
        // The flush overhead around a call belongs to the caller; the
        // callee's body is someone else's local contribution.
        s.serialCycles = satAdd(s.serialCycles,
                                satMul(op.repeat, call_oh, sat), sat);
        s.commCycles = satAdd(s.commCycles,
                              satMul(op.repeat, call_oh, sat), sat);
        s.callInvocations = satAdd(s.callInvocations, op.repeat, sat);
    }
    s.saturated = sat;
    return s;
}

} // namespace msq
