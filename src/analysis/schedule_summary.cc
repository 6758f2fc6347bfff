#include "analysis/schedule_summary.hh"

#include <algorithm>
#include <optional>

#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

double
ResourceSummary::meanRegionOccupancy() const
{
    if (activeRegionSteps == 0)
        return 0.0;
    return operandTouches.toDouble() / activeRegionSteps.toDouble();
}

double
ResourceSummary::commFraction() const
{
    if (serialCycles == 0)
        return 0.0;
    return commCycles.toDouble() / serialCycles.toDouble();
}

Count
ResourceSummary::occupancySteps() const
{
    Count total;
    for (Count count : occupancy)
        total += count;
    return total;
}

std::span<const ResourceSummary::Member>
ResourceSummary::members()
{
    using S = ResourceSummary;
    static constexpr Member all[] = {
        {"gateOps", &S::gateOps},
        {"serialCycles", &S::serialCycles},
        {"commCycles", &S::commCycles},
        {"teleportMoves", &S::teleportMoves},
        {"blockingTeleports", &S::blockingTeleports},
        {"localMoves", &S::localMoves},
        {"stepsWithBlockingMove", &S::stepsWithBlockingMove},
        {"stepsWithOnlyLocalMoves", &S::stepsWithOnlyLocalMoves},
        {"activeRegionSteps", &S::activeRegionSteps},
        {"operandTouches", &S::operandTouches},
        {"peakRegionOccupancy", nullptr, &S::peakRegionOccupancy},
        {"peakBlockingMovesPerStep", nullptr,
         &S::peakBlockingMovesPerStep},
        {"peakActiveRegions", nullptr, &S::peakActiveRegions},
        {"callInvocations", &S::callInvocations},
        {"interCoreTeleports", &S::interCoreTeleports},
    };
    return all;
}

void
ResourceSummary::add(const ResourceSummary &part, Count times)
{
    // A part run zero times adds nothing, its peaks included.
    if (times == 0)
        return;
    for (const Member &m : members()) {
        if (m.count != nullptr)
            this->*m.count += times * part.*m.count;
        else
            this->*m.peak = std::max(this->*m.peak, part.*m.peak);
    }
    for (size_t b = 0; b < occupancy.size(); ++b)
        occupancy[b] += times * part.occupancy[b];
}

bool
ResourceSummary::saturated() const
{
    return std::ranges::any_of(members(),
                               [this](const Member &m) {
                                   return m.of(*this).saturated();
                               }) ||
           std::ranges::any_of(occupancy,
                               [](Count c) { return c.saturated(); });
}

size_t
ResourceSummary::occupancyBucket(uint64_t active_regions)
{
    const auto &bounds = occupancyBounds;
    return static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(),
                         active_regions == 0 ? 0 : active_regions - 1) -
        bounds.begin());
}

std::string
ResourceSummary::occupancyLabel(size_t index)
{
    const auto &bounds = occupancyBounds;
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

ResourceSummary
summarizeLeafSchedule(const LeafSchedule &sched, const MultiSimdArch &arch)
{
    const uint64_t bw = arch.eprBandwidth;
    if (bw == 0)
        panic("summarizeLeafSchedule: EPR bandwidth of 0 cannot move "
              "anything; MultiSimdArch::validate() should have rejected "
              "this configuration");
    // Multi-core phases route through the shared MovePhaseCostModel —
    // the same model the CommunicationAnalyzer prices its steps with,
    // which E001 checks. The flat machine keeps this fold's own phase
    // formula below.
    std::optional<MovePhaseCostModel> cost;
    if (arch.topology.multiCore())
        cost.emplace(arch);

    // Every counter is bounded by the buffer's element counts, so plain
    // 64-bit arithmetic cannot overflow here; saturation only enters at
    // the composition level where repeat products multiply these values.
    const Module &mod = sched.module();
    ResourceSummary sum;
    for (TimestepView step : sched.steps()) {
        for (RegionSlotView slot : step) {
            uint64_t operands = 0;
            for (uint32_t op_index : slot.ops()) {
                ++sum.gateOps;
                operands += mod.op(op_index).operands.size();
            }
            // Mirror the annotator: a region counts as active only when
            // it touches operands this step (validated gates always do).
            if (operands > 0) {
                ++sum.activeRegionSteps;
                sum.operandTouches += operands;
                sum.peakRegionOccupancy =
                    std::max(sum.peakRegionOccupancy, operands);
            }
        }

        uint64_t blocking = 0;
        bool any_local = false;
        for (const Move &move : step.moves()) {
            if (move.isLocal()) {
                ++sum.localMoves;
                any_local = true;
                continue;
            }
            ++sum.teleportMoves;
            if (cost && cost->interCore(move))
                ++sum.interCoreTeleports;
            if (move.blocking) {
                ++sum.blockingTeleports;
                ++blocking;
            }
        }

        if (blocking > 0)
            ++sum.stepsWithBlockingMove;
        else if (any_local)
            ++sum.stepsWithOnlyLocalMoves;
        // Movement-phase cost. On the flat machine it is recomputed from
        // this loop's own move classification: blocking teleports cost
        // full 4-cycle phases, serialized by a finite EPR bandwidth; a
        // local-only phase costs one cycle.
        if (cost) {
            sum.commCycles += cost->cycles(step.moves());
        } else if (blocking > 0) {
            uint64_t phases =
                bw == unbounded ? 1 : (blocking + bw - 1) / bw;
            sum.commCycles += phases * MultiSimdArch::teleportCycles;
        } else if (any_local) {
            sum.commCycles += MultiSimdArch::localMoveCycles;
        }
        sum.peakBlockingMovesPerStep =
            std::max(sum.peakBlockingMovesPerStep, blocking);

        const uint64_t active = step.activeRegions();
        sum.peakActiveRegions = std::max(sum.peakActiveRegions, active);
        ++sum.occupancy[ResourceSummary::occupancyBucket(active)];
    }
    sum.serialCycles = sched.computeTimesteps() + sum.commCycles;
    return sum;
}

ScheduleSummaryAnalysis::ScheduleSummaryAnalysis(
    const Program &prog, CommMode mode, const LeafSummaryFn &leaf_summary,
    DiagnosticEngine *diags)
    : prog(&prog), mode(mode), order(prog.bottomUpOrder()),
      summaries(prog.numModules()), analyzed(prog.numModules())
{
    // Callees precede callers in `order`, so one pass suffices: a
    // module's own gates and call flushes, then each callee's body
    // repeat times.
    for (ModuleId id : order) {
        const Module &mod = prog.module(id);
        analyzed[id] = true;
        if (mod.isLeaf()) {
            summaries[id] = leaf_summary(mod, id);
            continue;
        }

        ResourceSummary s = localContribution(id);
        for (uint32_t index : mod.callOps()) {
            const Operation &op = mod.ops()[index];
            const ResourceSummary &callee = summaries[op.callee];
            const bool was_saturated = s.saturated();
            s.add(callee, op.repeat);
            // E006 lands where the sum first clips, not on the callers
            // above it.
            if (diags == nullptr || !s.saturated() || was_saturated ||
                callee.saturated())
                continue;
            diags->warning(
                DiagCode::EstimateSaturated,
                csprintf("summary of call to '%s' (repeat %llu) "
                         "saturated at 2^128-1; dependent estimate "
                         "fields are poisoned, exactness cannot be "
                         "verified",
                         prog.module(op.callee).name().c_str(),
                         static_cast<unsigned long long>(op.repeat)),
                DiagContext{mod.name(), index, op.line});
        }
        summaries[id] = std::move(s);
    }
}

const ResourceSummary &
ScheduleSummaryAnalysis::summary(ModuleId id) const
{
    if (id >= analyzed.size() || !analyzed[id])
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

    // Gates at coarse cost, and the flush overhead around each call:
    // it belongs to the caller, while the callee's body is someone
    // else's local contribution.
    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t call_oh = MultiSimdArch::callOverhead(mode);
    ResourceSummary gate;
    gate.gateOps = 1;
    gate.serialCycles = gate_cost;
    gate.commCycles = gate_cost - MultiSimdArch::gateCycles;
    ResourceSummary flush;
    flush.serialCycles = call_oh;
    flush.commCycles = call_oh;
    flush.callInvocations = 1;

    ResourceSummary s;
    s.add(gate, mod.localGateCount());
    for (uint32_t index : mod.callOps())
        s.add(flush, mod.ops()[index].repeat);
    return s;
}

} // namespace msq
