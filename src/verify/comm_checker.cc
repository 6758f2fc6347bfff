#include "verify/comm_checker.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "analysis/qubit_mapping.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/** Qubit name when known, else "q<id>". */
std::string
qubitLabel(const Module &mod, uint32_t q)
{
    if (q < mod.numQubits())
        return mod.qubitName(q);
    return csprintf("q%u", q);
}

} // anonymous namespace

bool
checkCommSchedule(const LeafSchedule &sched, const MultiSimdArch &arch,
                  DiagnosticEngine &diags, CommCheckStats *stats)
{
    const Module &mod = sched.module();
    size_t num_qubits = mod.numQubits();
    size_t errors_before = diags.numErrors();
    DiagContext ctx;
    ctx.module = mod.name();

    // Last timestep each qubit participates in a scheduled gate; the
    // qubit is dead afterwards. Derived from the schedule itself (not
    // from module op order) so partially scheduled modules still replay.
    constexpr uint64_t neverUsed = std::numeric_limits<uint64_t>::max();
    std::vector<uint64_t> last_use(num_qubits, neverUsed);
    for (TimestepView step : sched.steps()) {
        for (RegionSlotView slot : step) {
            for (uint32_t op_index : slot.ops()) {
                if (op_index >= mod.numOps())
                    continue; // S003's job
                for (QubitId q : mod.op(op_index).operands)
                    if (q < num_qubits)
                        last_use[q] = step.index();
            }
        }
    }

    const Topology &topo = arch.topology;
    const bool multi_core = topo.multiCore();
    const TopologyRouter router(topo);
    // Masked inter-core teleports crossing each link this timestep —
    // checked against the link bandwidth at end of step (M010).
    std::vector<uint64_t> link_load(router.numEdges(), 0);
    std::vector<unsigned> route;

    std::vector<Location> loc(num_qubits, Location::global());
    if (multi_core) {
        // The same pure home mapping the analyzer started from.
        const std::vector<unsigned> home =
            computeQubitMapping(mod, topo);
        for (size_t q = 0; q < loc.size(); ++q)
            loc[q] = Location::inMemory(home[q]);
    }
    std::vector<uint64_t> local_count(sched.k(), 0);

    for (TimestepView step : sched.steps()) {
        const uint64_t ts = step.index();
        if (stats)
            ++stats->steps;

        // Which region each qubit computes in this step, if any.
        std::unordered_map<uint32_t, unsigned> operand_region;
        for (RegionSlotView slot : step) {
            for (uint32_t op_index : slot.ops()) {
                if (op_index >= mod.numOps())
                    continue;
                for (QubitId q : mod.op(op_index).operands)
                    operand_region.emplace(q, slot.region());
            }
        }

        std::unordered_map<uint32_t, size_t> moved_at;
        const std::span<const Move> step_moves = step.moves();
        for (size_t i = 0; i < step_moves.size(); ++i) {
            const Move &move = step_moves[i];
            uint32_t q = move.qubit;
            if (stats) {
                ++stats->movesChecked;
                if (move.isLocal()) {
                    ++stats->localMoves;
                } else {
                    ++stats->teleports;
                    if (!move.blocking)
                        ++stats->maskedTeleports;
                }
            }

            // M009: each endpoint names a memory bank, region or
            // scratchpad the machine has. A bad endpoint is neither
            // routed nor counted toward any occupancy.
            bool endpoint_bad = false;
            for (const Location *end : {&move.from, &move.to}) {
                const bool bank = end->isGlobal();
                const unsigned limit = bank ? topo.cores : sched.k();
                if (end->region < limit)
                    continue;
                diags.error(
                    DiagCode::CommEndpointOutOfRange,
                    csprintf("step %zu: move of qubit %s names %s, the "
                             "machine has %u %s",
                             ts, qubitLabel(mod, q).c_str(),
                             end->describe().c_str(), limit,
                             bank ? "cores" : "regions"),
                    ctx);
                endpoint_bad = true;
            }

            if (multi_core && !endpoint_bad && !move.isLocal()) {
                unsigned from_core = locationCore(move.from, arch);
                unsigned to_core = locationCore(move.to, arch);
                if (from_core != to_core) {
                    if (stats)
                        ++stats->interCoreTeleports;
                    if (!move.blocking &&
                        topo.linkBandwidth != unbounded) {
                        route.clear();
                        router.routeEdges(from_core, to_core, route);
                        for (unsigned e : route)
                            ++link_load[e];
                    }
                }
            }

            if (q >= num_qubits) {
                diags.error(DiagCode::CommMoveSourceMismatch,
                            csprintf("step %zu: move of unknown qubit q%u",
                                     ts, q),
                            ctx);
                continue;
            }

            auto [prev, fresh] = moved_at.emplace(q, i);
            if (!fresh) {
                diags.error(
                    DiagCode::CommConflictingMoves,
                    csprintf("step %zu: qubit %s moved twice in one "
                             "timestep (moves %zu and %zu)",
                             ts, qubitLabel(mod, q).c_str(), prev->second,
                             i),
                    ctx);
            }

            if (loc[q] != move.from) {
                diags.error(
                    DiagCode::CommMoveSourceMismatch,
                    csprintf("step %zu: move of qubit %s claims source "
                             "%s but the qubit is at %s",
                             ts, qubitLabel(mod, q).c_str(),
                             move.from.describe().c_str(),
                             loc[q].describe().c_str()),
                    ctx);
            }

            if (move.to == loc[q]) {
                diags.warning(
                    DiagCode::CommRedundantMove,
                    csprintf("step %zu: qubit %s moved to %s where it "
                             "already resides",
                             ts, qubitLabel(mod, q).c_str(),
                             move.to.describe().c_str()),
                    ctx);
            }

            auto use = operand_region.find(q);
            if (use != operand_region.end() &&
                move.to != Location::inRegion(use->second)) {
                diags.error(
                    DiagCode::CommMoveDuringGate,
                    csprintf("step %zu: qubit %s is an operand of a gate "
                             "in region %u but is moved to %s in the "
                             "same timestep",
                             ts, qubitLabel(mod, q).c_str(), use->second,
                             move.to.describe().c_str()),
                    ctx);
            }

            bool dead = last_use[q] == neverUsed || ts > last_use[q];
            if (dead) {
                if (stats)
                    ++stats->deadMoves;
                // Dead evictions to global memory riding the masked
                // window are mandatory SIMD hygiene; everything else
                // spends communication on a value nobody reads.
                if (move.to.isRegion() || move.to.isLocalMem() ||
                    move.blocking) {
                    diags.warning(
                        DiagCode::CommDeadTeleport,
                        csprintf("step %zu: qubit %s is dead (last use "
                                 "%s) but is moved %s to %s — wasted "
                                 "communication",
                                 ts, qubitLabel(mod, q).c_str(),
                                 last_use[q] == neverUsed
                                     ? "never"
                                     : csprintf("at step %llu",
                                                (unsigned long long)
                                                    last_use[q])
                                           .c_str(),
                                 move.blocking ? "blocking" : "masked",
                                 move.to.describe().c_str()),
                        ctx);
                }
            }

            // Apply the move so later checks see the updated world.
            if (loc[q].isLocalMem() && loc[q].region < local_count.size())
                --local_count[loc[q].region];
            loc[q] = move.to;
            if (move.to.isLocalMem()) {
                unsigned r = move.to.region;
                if (r < local_count.size() &&
                    ++local_count[r] > arch.localMemCapacity) {
                    diags.error(
                        DiagCode::CommLocalOvercap,
                        csprintf("step %zu: scratchpad of region %u "
                                 "holds %llu qubits, capacity %llu",
                                 ts, r,
                                 (unsigned long long)local_count[r],
                                 (unsigned long long)
                                     arch.localMemCapacity),
                        ctx);
                }
            }
        }

        // M010: per-link masked-teleport budget. The analyzer must
        // demote excess masked inter-core traffic to blocking; a link
        // carrying more masked teleports than its bandwidth in one
        // step has been over-subscribed.
        if (multi_core && topo.linkBandwidth != unbounded) {
            for (size_t e = 0; e < link_load.size(); ++e) {
                if (link_load[e] > topo.linkBandwidth) {
                    auto [a, b] = router.edges()[e];
                    diags.error(
                        DiagCode::CommLinkOvercap,
                        csprintf("step %zu: link %u-%u carries %llu "
                                 "masked teleports, bandwidth %llu",
                                 ts, a, b,
                                 (unsigned long long)link_load[e],
                                 (unsigned long long)topo.linkBandwidth),
                        ctx);
                }
            }
            std::fill(link_load.begin(), link_load.end(), 0);
        }

        // Post-movement residency: every operand sits in its gate's
        // region...
        for (RegionSlotView slot : step) {
            const unsigned r = slot.region();
            for (uint32_t op_index : slot.ops()) {
                if (op_index >= mod.numOps())
                    continue;
                for (QubitId q : mod.op(op_index).operands) {
                    if (q >= num_qubits)
                        continue;
                    if (loc[q] != Location::inRegion(r)) {
                        diags.error(
                            DiagCode::CommOperandNotResident,
                            csprintf("step %zu: operand %s of op %u "
                                     "must be in region %u but is at %s",
                                     ts, qubitLabel(mod, q).c_str(),
                                     op_index, r,
                                     loc[q].describe().c_str()),
                            ctx);
                    }
                }
            }
        }

        // ...and no region holds more than d qubits (parked qubits
        // count: they occupy physical sites and would receive the
        // region's broadcast gate).
        if (arch.d != unbounded) {
            std::vector<uint64_t> occupancy(sched.k(), 0);
            for (uint32_t q = 0; q < num_qubits; ++q)
                if (loc[q].isRegion() && loc[q].region < occupancy.size())
                    ++occupancy[loc[q].region];
            for (unsigned r = 0; r < occupancy.size(); ++r) {
                if (occupancy[r] > arch.d) {
                    diags.error(
                        DiagCode::CommRegionOvercap,
                        csprintf("step %zu: region %u holds %llu qubits, "
                                 "SIMD width d = %llu",
                                 ts, r, (unsigned long long)occupancy[r],
                                 (unsigned long long)arch.d),
                        ctx);
                }
            }
        }
    }

    return diags.numErrors() == errors_before;
}

} // namespace msq
