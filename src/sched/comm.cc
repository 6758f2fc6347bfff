#include "sched/comm.hh"

#include <algorithm>
#include <vector>

#include "analysis/qubit_mapping.hh"
#include "support/logging.hh"

namespace msq {

namespace {

/** Per-qubit ordered use sites (timestep, region) within a schedule. */
struct UseLists
{
    std::vector<std::vector<std::pair<uint64_t, unsigned>>> uses;
    std::vector<size_t> cursor; ///< next-use index per qubit

    UseLists(const LeafSchedule &sched)
        : uses(sched.module().numQubits()),
          cursor(sched.module().numQubits(), 0)
    {
        const Module &mod = sched.module();
        for (TimestepView step : sched.steps()) {
            for (RegionSlotView slot : step) {
                unsigned r = slot.region();
                for (uint32_t op_index : slot.ops())
                    for (QubitId q : mod.op(op_index).operands)
                        uses[q].emplace_back(step.index(), r);
            }
        }
    }

    /**
     * Next use strictly after @p ts, or nullptr. Advances the qubit's
     * cursor past every entry at or before @p ts: the analyzer walks
     * timesteps monotonically, so those entries can never satisfy a
     * later query. Sharing one cursor between queries and consumption
     * keeps each use list's total scan work linear (a query-local
     * cursor would re-scan already-consumed entries on every eviction
     * check — quadratic on hot qubits).
     */
    const std::pair<uint64_t, unsigned> *
    nextUseAfter(QubitId q, uint64_t ts)
    {
        size_t &i = cursor[q];
        const auto &list = uses[q];
        while (i < list.size() && list[i].first <= ts)
            ++i;
        return i < list.size() ? &list[i] : nullptr;
    }

    /** Advance cursors past timestep @p ts for the given qubit. */
    void
    consume(QubitId q, uint64_t ts)
    {
        nextUseAfter(q, ts);
    }
};

/** Sentinel for "never touched". */
constexpr int64_t neverTouched = -(1LL << 60);

} // anonymous namespace

CommStats
CommunicationAnalyzer::annotate(LeafSchedule &sched) const
{
    arch.validate();
    CommStats stats;

    // The annotator clears the existing movement annotation (detaching
    // a private buffer copy if the schedule is aliased, e.g. cached);
    // construct it before taking any views so they bind to the buffer
    // that survives.
    MoveAnnotator annot(sched);
    const uint64_t num_steps = sched.computeTimesteps();

    if (mode == CommMode::None) {
        for (uint64_t ts = 0; ts < num_steps; ++ts)
            annot.endStep();
        annot.finish();
        stats.totalCycles = sched.totalCycles(arch);
        return stats;
    }

    const Module &mod = sched.module();
    const bool use_local = mode == CommMode::GlobalWithLocalMem &&
                           arch.localMemCapacity > 0;
    const auto mask_window =
        static_cast<int64_t>(MultiSimdArch::teleportCycles);

    const Topology &topo = arch.topology;
    const bool multi_core = topo.multiCore();
    // Home banks: every qubit starts in (and is evicted back to) its
    // home core's memory. On the flat machine every home is core 0, so
    // this is exactly the historical "all qubits start in global
    // memory"; the validator and comm checker recompute the same
    // mapping independently (it is a pure function of module+topology).
    const std::vector<unsigned> home = computeQubitMapping(mod, topo);
    const TopologyRouter router(topo);
    // Remaining masked inter-core teleports each link can still absorb
    // this timestep — pre-distributed EPR pairs are a per-link, per-step
    // resource. Refilled to the link bandwidth at every step.
    std::vector<uint64_t> link_budget(router.numEdges(), 0);
    std::vector<unsigned> route;

    UseLists uses(sched);

    // All qubits (including ancilla, which are generated at the global
    // memory, §3.2) start in their home core's memory bank.
    std::vector<Location> loc(mod.numQubits(), Location::global());
    if (multi_core)
        for (size_t q = 0; q < loc.size(); ++q)
            loc[q] = Location::inMemory(home[q]);
    std::vector<uint64_t> local_count(sched.k(), 0);

    // Last timestep each qubit was touched (operand or moved); a
    // teleport is masked only when the qubit is quiescent for a full
    // teleport window on the departing side.
    std::vector<int64_t> last_touch(mod.numQubits(), neverTouched);

    // Qubits currently parked inside each region (between uses).
    std::vector<std::vector<QubitId>> parked(sched.k());

    // Per-step operand scratch, reused across steps; operand_step[q]
    // is the last timestep in which q was an operand anywhere, so
    // "operand this step" is one comparison.
    std::vector<std::vector<QubitId>> operands(sched.k());
    std::vector<uint64_t> operand_step(mod.numQubits(), num_steps);

    for (uint64_t ts = 0; ts < num_steps; ++ts) {
        TimestepView step = sched.step(ts);
        auto now = static_cast<int64_t>(ts);
        bool any_blocking = false;
        bool any_local = false;

        if (multi_core && topo.linkBandwidth != unbounded)
            std::fill(link_budget.begin(), link_budget.end(),
                      topo.linkBandwidth);

        // Single-pass move emission: every move is classified as it is
        // created, so the stats accumulate here instead of re-scanning
        // the step's move slot afterwards.
        auto emit = [&](const Move &move) {
            if (move.isLocal()) {
                ++stats.localMoves;
                any_local = true;
            } else {
                ++stats.teleportMoves;
                if (multi_core && locationCore(move.from, arch) !=
                                      locationCore(move.to, arch))
                    ++stats.interCoreTeleports;
                if (move.blocking) {
                    ++stats.blockingTeleports;
                    any_blocking = true;
                }
            }
            annot.add(move);
        };

        // Operand sets per region for this timestep.
        for (auto &list : operands)
            list.clear();
        for (RegionSlotView slot : step) {
            unsigned r = slot.region();
            for (uint32_t op_index : slot.ops()) {
                for (QubitId q : mod.op(op_index).operands) {
                    operands[r].push_back(q);
                    operand_step[q] = ts;
                }
            }
            if (!operands[r].empty()) {
                ++stats.activeRegionSteps;
                stats.operandSlots += operands[r].size();
                stats.peakRegionOccupancy =
                    std::max<uint64_t>(stats.peakRegionOccupancy,
                                       operands[r].size());
            }
        }

        // Phase 1 - evictions: a region active this timestep must shed
        // every parked qubit that is not one of its operands. An
        // eviction blocks only when the qubit is needed again within
        // the teleport window; distant reuse is masked by pipelining.
        // Slots are region-sorted, so this visits active regions in
        // ascending order, exactly like the old per-region sweep.
        for (RegionSlotView slot : step) {
            unsigned r = slot.region();
            std::vector<QubitId> keep;
            for (QubitId q : parked[r]) {
                // A qubit operated on anywhere this timestep is not
                // evicted: either it stays (same region) or the fetch
                // phase teleports it region-to-region directly.
                if (operand_step[q] == ts) {
                    keep.push_back(q);
                    continue;
                }
                const auto *next = uses.nextUseAfter(q, ts);
                bool tight = next && static_cast<int64_t>(next->first) -
                                             now < mask_window;
                bool to_local = use_local && tight && next &&
                                next->second == r &&
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
            parked[r] = std::move(keep);
        }

        // Phase 2 - fetches: bring each operand into its region. A
        // teleport fetch blocks unless the qubit has been quiescent for
        // a full window (its EPR-paired transfer was pipelined ahead).
        for (unsigned r = 0; r < sched.k(); ++r) {
            for (QubitId q : operands[r]) {
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

        // Advance next-use cursors.
        for (unsigned r = 0; r < sched.k(); ++r)
            for (QubitId q : operands[r])
                uses.consume(q, ts);

        if (any_blocking)
            ++stats.stepsWithBlockingMove;
        else if (any_local)
            ++stats.stepsWithOnlyLocalMoves;

        annot.endStep();
    }

    annot.finish();
    stats.peakBlockingMovesPerStep = sched.peakBlockingMoves();
    stats.totalCycles = sched.totalCycles(arch);
    return stats;
}

} // namespace msq
