#include "sched/comm.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "analysis/qubit_mapping.hh"
#include "analysis/schedule_summary.hh"
#include "support/logging.hh"

namespace msq {

namespace {

/**
 * Step-ordered operand stream of one schedule: one record per operand
 * occurrence, in exactly the order the analyzer visits them (steps
 * ascending, slots region-ascending within a step, ops in slot order,
 * operands in op order), each linked to the same qubit's next
 * occurrence. One forward walk of the placement fills it and one
 * backward pass links it, so "next use of q after the current step" is
 * one lookup, uses[latest[q]].next.
 */
struct OperandStream
{
    static constexpr uint32_t none = std::numeric_limits<uint32_t>::max();

    struct Use
    {
        QubitId qubit;
        uint32_t step;
        uint32_t region;
        uint32_t next; ///< same qubit's next occurrence, or none
    };

    std::vector<Use> uses;
    std::vector<uint32_t> slotEnd; ///< per slot: exclusive end into uses
    /** Per qubit, the first occurrence (none if never an operand). */
    std::vector<uint32_t> first;

    /** @param with_uses false fills only slotEnd (the per-slot operand
     * counts), all that a move-free annotation reads. */
    OperandStream(const LeafSchedule &sched, bool with_uses)
    {
        const Module &mod = sched.module();
        const ScheduleBuffer &buf = sched.buffer();
        if (with_uses) {
            // Every op is placed once, so the module's operand total
            // sizes the stream exactly (no growth copies on large
            // leaves).
            size_t occurrences = 0;
            for (const Operation &op : mod.ops())
                occurrences += op.operands.size();
            uses.reserve(occurrences);
        }
        slotEnd.reserve(buf.slots.size());
        uint64_t end = 0;
        uint32_t slot = 0;
        for (uint64_t ts = 0; ts < buf.numSteps(); ++ts) {
            for (; slot < buf.slotEnd[ts]; ++slot) {
                const uint32_t region = buf.slots[slot].region;
                for (uint32_t o = buf.opBegin(slot);
                     o < buf.slots[slot].opEnd; ++o) {
                    const auto &operands = mod.op(buf.ops[o]).operands;
                    end += operands.size();
                    if (with_uses)
                        for (QubitId q : operands)
                            uses.push_back({q, static_cast<uint32_t>(ts),
                                            region, none});
                }
                if (end >= none)
                    fatal("CommunicationAnalyzer: more than 2^32-1 "
                          "operand occurrences in one leaf schedule");
                slotEnd.push_back(static_cast<uint32_t>(end));
            }
        }
        first.assign(mod.numQubits(), none);
        for (auto i = static_cast<uint32_t>(uses.size()); i-- > 0;) {
            uses[i].next = first[uses[i].qubit];
            first[uses[i].qubit] = i;
        }
    }

    uint32_t
    slotBegin(uint32_t slot) const
    {
        return slot == 0 ? 0 : slotEnd[slot - 1];
    }
};

/** Sentinel for "never touched". */
constexpr int64_t neverTouched = -(1LL << 60);

/** Move sink of the annotate walk that records nothing; MoveAnnotator
 * is the recording one. Only when @p price_steps (a multi-core step is
 * priced from its moves) does it keep the open step's moves, in one
 * scratch vector reused by every step. */
class CountingSink
{
  public:
    explicit CountingSink(bool price_steps) : keep(price_steps) {}

    void
    add(const Move &move)
    {
        if (keep)
            moves.push_back(move);
    }
    std::span<const Move> stepMoves() const { return moves; }
    void endStep() { moves.clear(); }
    void finish() {}

  private:
    bool keep;
    std::vector<Move> moves;
};

/**
 * The one annotate walk: derives every step's moves, hands each to
 * @p sink (a MoveAnnotator or a CountingSink), and folds the leaf's
 * ResourceSummary into @p sum. The per-move and per-step counters are
 * tallied in 64 bits (one walk cannot reach 2^64 of any) and folded
 * into their Counts once, after the last step.
 */
template <class Sink>
void
annotateWalk(const MultiSimdArch &arch, CommMode mode,
             const LeafSchedule &sched, ResourceSummary &sum,
             std::span<const unsigned> home, Sink &sink)
{
    const ScheduleBuffer &buf = sched.buffer();
    const uint64_t num_steps = buf.numSteps();
    const Module &mod = sched.module();
    const bool model_moves = mode != CommMode::None;
    const OperandStream stream(sched, model_moves);

    sum = ResourceSummary{};
    sum.gateOps = buf.ops.size();
    uint64_t n_local = 0;
    uint64_t n_teleport = 0;
    uint64_t n_inter = 0;
    uint64_t n_blocking = 0;
    uint64_t n_blocking_steps = 0;
    uint64_t n_local_only_steps = 0;
    uint64_t n_active = 0;
    uint64_t n_touches = 0;

    const bool use_local = mode == CommMode::GlobalWithLocalMem &&
                           arch.localMemCapacity > 0;
    const auto mask_window =
        static_cast<int64_t>(MultiSimdArch::teleportCycles);

    const Topology &topo = arch.topology;
    const bool multi_core = topo.multiCore();
    // Prices each multi-core step's move range; its router also routes
    // masked inter-core teleports against the per-link EPR budget.
    const MovePhaseCostModel cost(arch);
    const TopologyRouter &router = cost.router();
    // Remaining masked inter-core teleports each link can still absorb
    // this timestep — pre-distributed EPR pairs are a per-link, per-step
    // resource. Refilled to the link bandwidth at every step.
    std::vector<uint64_t> link_budget(router.numEdges(), 0);
    std::vector<unsigned> route;

    // All qubits (including ancilla, which are generated at the global
    // memory, §3.2) start in their home core's memory bank, and are
    // evicted back to their current core's bank. On the flat machine
    // every home is core 0, so this is exactly the historical "all
    // qubits start in global memory". The coarse scheduler passes the
    // mapping it computed once per leaf; the validator and comm checker
    // recompute it independently (it is a pure function of
    // module+topology).
    std::vector<Location> loc(mod.numQubits(), Location::global());
    if (model_moves && multi_core) {
        if (home.size() != loc.size())
            panic("CommunicationAnalyzer: qubit mapping does not match "
                  "module " + mod.name());
        for (size_t q = 0; q < loc.size(); ++q)
            loc[q] = Location::inMemory(home[q]);
    }
    std::vector<uint64_t> local_count(sched.k(), 0);

    // Last timestep each qubit was touched (operand or moved); a
    // teleport is masked only when the qubit is quiescent for a full
    // teleport window on the departing side.
    std::vector<int64_t> last_touch(mod.numQubits(), neverTouched);

    // Qubits currently parked inside each region (between uses).
    std::vector<std::vector<QubitId>> parked(sched.k());

    // latest[q]: q's most recent occurrence at or before the current
    // step, so q is an operand this step exactly when latest[q] is at
    // or past the step's first occurrence, and its next use is
    // uses[latest[q]].next. Seeded with the first occurrences; the seed
    // of a qubit not yet used is never read, because only qubits a
    // fetch has parked are queried.
    std::vector<uint32_t> latest = stream.first;

    // Steps per active-region count, bucketed into the occupancy
    // histogram after the walk (a step has at most k active regions).
    std::vector<uint64_t> steps_with_active(sched.k() + 1, 0);

    for (uint64_t ts = 0; ts < num_steps; ++ts) {
        const uint32_t slot_begin = buf.slotBegin(ts);
        const uint32_t slot_end = buf.slotEnd[ts];
        const uint32_t step_uses = stream.slotBegin(slot_begin);
        auto now = static_cast<int64_t>(ts);

        // Placement profile: region occupancy and the per-step active
        // region histogram, in every mode.
        ++steps_with_active[slot_end - slot_begin];
        for (uint32_t s = slot_begin; s < slot_end; ++s) {
            const uint32_t operands =
                stream.slotEnd[s] - stream.slotBegin(s);
            if (operands > 0) {
                ++n_active;
                n_touches += operands;
                sum.peakRegionOccupancy = std::max<uint64_t>(
                    sum.peakRegionOccupancy, operands);
            }
        }
        if (!model_moves) {
            sink.endStep();
            continue;
        }
        for (uint32_t i = step_uses; i < stream.slotBegin(slot_end); ++i)
            latest[stream.uses[i].qubit] = i;

        uint64_t step_blocking = 0;
        bool any_local = false;
        if (multi_core && topo.linkBandwidth != unbounded)
            std::fill(link_budget.begin(), link_budget.end(),
                      topo.linkBandwidth);

        // Single-pass move emission: every move is classified as it is
        // created, so the statistics accumulate here instead of
        // re-scanning the step's move slot afterwards.
        auto emit = [&](const Move &move) {
            if (move.isLocal()) {
                ++n_local;
                any_local = true;
            } else {
                ++n_teleport;
                if (multi_core && locationCore(move.from, arch) !=
                                      locationCore(move.to, arch))
                    ++n_inter;
                if (move.blocking) {
                    ++n_blocking;
                    ++step_blocking;
                }
            }
            sink.add(move);
        };

        // Phase 1 - evictions: a region active this timestep must shed
        // every parked qubit that is not one of its operands. An
        // eviction blocks only when the qubit is needed again within
        // the teleport window; distant reuse is masked by pipelining.
        // Slots are region-sorted, so this visits active regions in
        // ascending order. Kept qubits are compacted in place.
        for (uint32_t s = slot_begin; s < slot_end; ++s) {
            const unsigned r = buf.slots[s].region;
            std::vector<QubitId> &list = parked[r];
            size_t kept = 0;
            for (QubitId q : list) {
                // A qubit operated on anywhere this timestep is not
                // evicted: either it stays (same region) or the fetch
                // phase teleports it region-to-region directly.
                if (latest[q] >= step_uses) {
                    list[kept++] = q;
                    continue;
                }
                const uint32_t next_use = stream.uses[latest[q]].next;
                const OperandStream::Use *next =
                    next_use == OperandStream::none
                        ? nullptr
                        : &stream.uses[next_use];
                bool tight = next && static_cast<int64_t>(next->step) -
                                             now < mask_window;
                bool to_local = use_local && tight && next &&
                                next->region == r &&
                                local_count[r] < arch.localMemCapacity;
                Move move;
                move.qubit = q;
                move.from = Location::inRegion(r);
                if (to_local) {
                    move.to = Location::inLocalMem(r);
                    move.blocking = false;
                    loc[q] = move.to;
                    ++local_count[r];
                } else {
                    // Evictions always target the *current* core's
                    // bank (an intra-core teleport) — going home would
                    // turn every eviction into link traffic.
                    move.to = Location::inMemory(arch.coreOfRegion(r));
                    move.blocking = tight;
                    loc[q] = move.to;
                }
                emit(move);
                last_touch[q] = now;
            }
            list.resize(kept);
        }

        // Phase 2 - fetches: bring each operand into its region. A
        // teleport fetch blocks unless the qubit has been quiescent for
        // a full window (its EPR-paired transfer was pipelined ahead).
        for (uint32_t s = slot_begin; s < slot_end; ++s) {
            const unsigned r = buf.slots[s].region;
            for (uint32_t i = stream.slotBegin(s); i < stream.slotEnd[s];
                 ++i) {
                const QubitId q = stream.uses[i].qubit;
                if (loc[q] == Location::inRegion(r)) {
                    last_touch[q] = now;
                    continue;
                }
                Move move;
                move.qubit = q;
                move.from = loc[q];
                move.to = Location::inRegion(r);
                if (move.isLocal()) {
                    move.blocking = false;
                } else if (unsigned from_core =
                               locationCore(move.from, arch),
                           to_core = locationCore(move.to, arch);
                           from_core == to_core) {
                    move.blocking = now - last_touch[q] < mask_window;
                } else {
                    // Inter-core masking needs the EPR pair to have
                    // crossed every link on the route ahead of time:
                    // the quiescence window stretches to the route's
                    // flight time when that exceeds one teleport.
                    unsigned hops = router.dist(from_core, to_core);
                    auto window = std::max<int64_t>(
                        mask_window,
                        static_cast<int64_t>(topo.linkLatency * hops));
                    move.blocking = now - last_touch[q] < window;
                    if (!move.blocking &&
                        topo.linkBandwidth != unbounded) {
                        // Masked teleports draw from each route link's
                        // per-step EPR budget; when any link is
                        // exhausted the move is demoted to blocking
                        // (deterministic emission order, M010 checks
                        // the cap).
                        route.clear();
                        router.routeEdges(from_core, to_core, route);
                        bool fits = true;
                        for (unsigned e : route)
                            if (link_budget[e] == 0)
                                fits = false;
                        if (fits)
                            for (unsigned e : route)
                                --link_budget[e];
                        else
                            move.blocking = true;
                    }
                }
                if (loc[q].isLocalMem())
                    --local_count[loc[q].region];
                if (loc[q].isRegion()) {
                    auto &old = parked[loc[q].region];
                    old.erase(std::find(old.begin(), old.end(), q));
                }
                emit(move);
                loc[q] = move.to;
                parked[r].push_back(q);
                last_touch[q] = now;
            }
        }

        // Movement-phase cost of this step: the flat machine's formula
        // over the counts just classified; multi-core phases route the
        // step's moves through the topology cost model.
        if (multi_core) {
            sum.commCycles += cost.cycles(sink.stepMoves());
        } else {
            sum.commCycles += movePhaseCyclesFor(step_blocking, any_local,
                                                 arch.eprBandwidth);
        }
        sum.peakBlockingMovesPerStep =
            std::max(sum.peakBlockingMovesPerStep, step_blocking);
        if (step_blocking > 0)
            ++n_blocking_steps;
        else if (any_local)
            ++n_local_only_steps;

        sink.endStep();
    }

    sink.finish();
    for (unsigned active = 0; active <= sched.k(); ++active) {
        if (steps_with_active[active] == 0)
            continue;
        sum.occupancy[ResourceSummary::occupancyBucket(active)] +=
            steps_with_active[active];
        sum.peakActiveRegions = active;
    }
    sum.localMoves = n_local;
    sum.teleportMoves = n_teleport;
    sum.interCoreTeleports = n_inter;
    sum.blockingTeleports = n_blocking;
    sum.stepsWithBlockingMove = n_blocking_steps;
    sum.stepsWithOnlyLocalMoves = n_local_only_steps;
    sum.activeRegionSteps = n_active;
    sum.operandTouches = n_touches;
    sum.serialCycles =
        num_steps * MultiSimdArch::gateCycles + sum.commCycles;
}

} // anonymous namespace

CommStats
CommunicationAnalyzer::annotate(LeafSchedule &sched) const
{
    ResourceSummary sum;
    annotate(sched, sum);
    CommStats stats;
    stats.teleportMoves = sum.teleportMoves.clampU64();
    stats.blockingTeleports = sum.blockingTeleports.clampU64();
    stats.localMoves = sum.localMoves.clampU64();
    stats.stepsWithBlockingMove = sum.stepsWithBlockingMove.clampU64();
    stats.stepsWithOnlyLocalMoves =
        sum.stepsWithOnlyLocalMoves.clampU64();
    stats.peakBlockingMovesPerStep = sum.peakBlockingMovesPerStep;
    stats.totalCycles = sum.serialCycles.clampU64();
    stats.interCoreTeleports = sum.interCoreTeleports.clampU64();
    if (mode != CommMode::None) {
        stats.activeRegionSteps = sum.activeRegionSteps.clampU64();
        stats.operandSlots = sum.operandTouches.clampU64();
        stats.peakRegionOccupancy = sum.peakRegionOccupancy;
    }
    return stats;
}

void
CommunicationAnalyzer::annotate(LeafSchedule &sched,
                                ResourceSummary &summary) const
{
    std::vector<unsigned> home;
    if (mode != CommMode::None && arch.topology.multiCore())
        home = computeQubitMapping(sched.module(), arch.topology);
    annotate(sched, summary, home);
}

void
CommunicationAnalyzer::annotate(LeafSchedule &sched, ResourceSummary &sum,
                                std::span<const unsigned> home) const
{
    arch.validate();
    // The annotator clears the existing movement annotation (detaching
    // a private buffer copy if the schedule is aliased, e.g. cached);
    // construct it before the walk takes any views so they bind to the
    // buffer that survives.
    MoveAnnotator annot(sched);
    annotateWalk(arch, mode, sched, sum, home, annot);
}

void
CommunicationAnalyzer::countMoves(const LeafSchedule &sched,
                                  ResourceSummary &sum,
                                  std::span<const unsigned> home) const
{
    arch.validate();
    CountingSink sink(mode != CommMode::None && arch.topology.multiCore());
    annotateWalk(arch, mode, sched, sum, home, sink);
}

} // namespace msq
