/**
 * @file
 * Multi-core topology study (DESIGN.md §16): flat Multi-SIMD vs 2/4/8
 * cores, under RCP and LPFS, with the greedy qubit-partitioning pass
 * against the naive round-robin placement. Reports whole-program
 * makespan and inter-core teleport counts per configuration, plus the
 * interaction-cut quality of the mapping itself.
 *
 * The bench is also a gate, not just a report:
 *
 *   1. on the 4-core ring, every workload must compile under BOTH
 *      schedulers with the M-code comm checker clean (any error fails
 *      the bench);
 *   2. the greedy mapping must strictly beat round-robin (fewer
 *      inter-core teleports under LPFS on the 4-core ring) on at least
 *      6 of the 8 workloads.
 *
 * Deterministic fields of the JSON (makespans, teleport counts, cuts,
 * win count) are gated strictly by CI against the committed
 * BENCH_multicore.json; wall-clock fields are informational.
 *
 * Usage: bench_multicore [output.json]   (default BENCH_multicore.json
 * in the working directory)
 */

#include "common.hh"

#include <chrono>
#include <string>
#include <vector>

#include "analysis/qubit_mapping.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "support/diagnostic.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "verify/comm_checker.hh"

using namespace msq;

namespace {

/** Workloads where greedy must strictly beat round-robin. */
constexpr unsigned requiredWins = 6;

struct TopoConfig
{
    const char *name; ///< row label, e.g. "4-core"
    const char *spec; ///< parseTopologySpec string; "" = flat machine
};

/**
 * The sweep: one flat tile and three rings of growing core count. The
 * per-core k keeps the total region count at 4 for the 2- and 4-core
 * machines (same machine, different wiring); the 8-core point doubles
 * the region count, which is the regime the multi-core literature
 * targets (more total compute, slower links).
 */
const TopoConfig topoConfigs[] = {
    {"flat", ""},
    {"2-core", "cores=2,k=2,shape=ring,link-bw=2"},
    {"4-core", "cores=4,k=1,shape=ring,link-bw=2"},
    {"8-core", "cores=8,k=1,shape=ring,link-bw=2"},
};

struct Row
{
    std::string workload;
    std::string topology;
    std::string scheduler;
    std::string mapping; ///< "greedy" / "roundrobin" / "-" on flat
    uint64_t makespan = 0;
    uint64_t interCoreTeleports = 0;
    double wallMs = 0.0;
};

/** Mapping quality of one workload's flattened leaves on the 4-core
 * ring: the summed interaction weight crossing cores. */
struct CutRow
{
    std::string workload;
    size_t leaves = 0;
    uint64_t cutMapped = 0;
    uint64_t cutRoundRobin = 0;
};

MultiSimdArch
makeArch(const std::string &spec, MappingStrategy mapping)
{
    MultiSimdArch arch(4);
    if (!spec.empty()) {
        std::string error;
        if (!parseTopologySpec(spec, arch, error))
            fatal("bench_multicore: bad spec \"" + spec + "\": " + error);
        arch.topology.mapping = mapping;
    }
    return arch;
}

/** Sum of inter-core teleports over every analyzed leaf's widest
 * schedule, each leaf counted once — the quantity the mapping pass
 * exists to shrink. This is not the program's link traffic: a leaf
 * called n times moves n times as much, and callers may run it at a
 * narrower width. `msq-verify --estimate-json` reports that
 * invocation-weighted count as `inter_core_teleports`. */
uint64_t
sumInterCore(const ProgramSchedule &schedule)
{
    uint64_t total = 0;
    for (const ModuleScheduleInfo &info : schedule.modules)
        if (info.analyzed && info.leaf)
            total += info.result->summary.interCoreTeleports.clampU64();
    return total;
}

void
writeJson(JsonWriter &json, const std::vector<Row> &rows,
          const std::vector<CutRow> &cuts, unsigned mapped_wins,
          bool comm_check_ok)
{
    json.beginObject().member(
        "schema", "msq-multicore-v1", "workloads", cuts.size(),
        "required_wins", requiredWins, "mapped_wins", mapped_wins,
        "comm_check_ok", comm_check_ok);
    json.key("rows").beginArray();
    for (const Row &row : rows) {
        json.beginObject().member(
            "workload", row.workload, "topology", row.topology,
            "scheduler", row.scheduler, "mapping", row.mapping,
            "makespan", row.makespan,
            "intercore_teleports", row.interCoreTeleports,
            "wall_ms", row.wallMs);
        json.endObject();
    }
    json.endArray().key("mapping_quality").beginArray();
    for (const CutRow &cut : cuts) {
        json.beginObject().member(
            "workload", cut.workload, "leaves", cut.leaves,
            "cut_mapped", cut.cutMapped,
            "cut_roundrobin", cut.cutRoundRobin);
        json.endObject();
    }
    json.endArray().endObject();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::banner("bench_multicore",
                  "extension (multi-core line, DESIGN.md §16) - flat "
                  "vs 2/4/8-core rings, greedy mapping vs round-robin");

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_multicore.json";

    std::vector<Row> rows;
    std::vector<CutRow> cuts;

    ResultTable table("whole-program makespan (LPFS, Global; "
                      "mapped / round-robin)");
    table.setHeader({"benchmark", "flat", "2-core", "4-core", "8-core",
                     "4c intercore m/rr"});

    for (const auto &spec : workloads::scaledParams()) {
        table.beginRow();
        table.addCell(spec.name);
        uint64_t four_core_mapped = 0, four_core_rr = 0;
        for (const TopoConfig &topo : topoConfigs) {
            std::string cell;
            for (SchedulerKind kind :
                 {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
                std::vector<MappingStrategy> strategies;
                if (*topo.spec == '\0')
                    strategies = {MappingStrategy::Greedy}; // flat: one
                else
                    strategies = {MappingStrategy::Greedy,
                                  MappingStrategy::RoundRobin};
                for (MappingStrategy strategy : strategies) {
                    MultiSimdArch arch = makeArch(topo.spec, strategy);
                    auto start = std::chrono::steady_clock::now();
                    auto result = bench::runWorkload(
                        spec, kind, CommMode::Global, arch);
                    auto wall =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start);
                    Row row;
                    row.workload = spec.shortName;
                    row.topology = topo.name;
                    row.scheduler = schedulerKindName(kind);
                    row.mapping =
                        *topo.spec == '\0'
                            ? "-"
                            : mappingStrategyName(strategy);
                    row.makespan = result.scheduledCycles;
                    row.interCoreTeleports =
                        sumInterCore(result.schedule);
                    row.wallMs = wall.count();
                    if (kind == SchedulerKind::Lpfs) {
                        if (std::string(topo.name) == "4-core") {
                            if (strategy == MappingStrategy::Greedy)
                                four_core_mapped =
                                    row.interCoreTeleports;
                            else
                                four_core_rr = row.interCoreTeleports;
                        }
                        if (strategy == MappingStrategy::Greedy) {
                            if (!cell.empty())
                                cell += " / ";
                            cell += std::to_string(row.makespan);
                        }
                    }
                    rows.push_back(std::move(row));
                }
            }
            table.addCell(cell);
        }
        table.addCell(std::to_string(four_core_mapped) + " / " +
                      std::to_string(four_core_rr));
    }
    table.printAscii(std::cout);

    // Mapping quality and the comm-check gate, both on the 4-core ring.
    bool comm_check_ok = true;
    unsigned mapped_wins = 0;
    std::cout << "\n4-core ring gates:\n";
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);
        MultiSimdArch mapped =
            makeArch("cores=4,k=1,shape=ring,link-bw=2",
                     MappingStrategy::Greedy);
        MultiSimdArch naive = mapped;
        naive.topology.mapping = MappingStrategy::RoundRobin;

        CutRow cut;
        cut.workload = spec.shortName;
        for (ModuleId id : prog.reachableModules()) {
            const Module &mod = prog.module(id);
            if (!mod.isLeaf() || mod.numOps() == 0)
                continue;
            ++cut.leaves;
            cut.cutMapped += mappingCutWeight(
                mod, computeQubitMapping(mod, mapped.topology));
            cut.cutRoundRobin += mappingCutWeight(
                mod, computeQubitMapping(mod, naive.topology));

            // Gate 1: both schedulers replay M-code clean.
            for (int which = 0; which < 2; ++which) {
                LeafSchedule sched =
                    which == 0
                        ? static_cast<const LeafScheduler &>(
                              RcpScheduler())
                              .schedule(mod, mapped)
                        : static_cast<const LeafScheduler &>(
                              LpfsScheduler())
                              .schedule(mod, mapped);
                ResourceSummary summary;
                CommunicationAnalyzer(mapped, CommMode::Global)
                    .annotate(sched, summary);
                DiagnosticEngine diags;
                if (!checkCommSchedule(sched, mapped, diags)) {
                    comm_check_ok = false;
                    std::cout << "  COMM-CHECK FAILED: "
                              << spec.shortName << "/" << mod.name()
                              << " ("
                              << (which == 0 ? "rcp" : "lpfs")
                              << ")\n";
                    for (const auto &d : diags.diagnostics())
                        std::cout << "    " << d.format() << "\n";
                }
            }
        }
        cuts.push_back(cut);
    }

    // Gate 2: fewer inter-core teleports under the greedy mapping.
    for (const CutRow &cut : cuts) {
        uint64_t mapped_tp = 0, rr_tp = 0;
        for (const Row &row : rows) {
            if (row.workload != cut.workload ||
                row.topology != "4-core" || row.scheduler != "lpfs")
                continue;
            if (row.mapping == "greedy")
                mapped_tp = row.interCoreTeleports;
            else if (row.mapping == "roundrobin")
                rr_tp = row.interCoreTeleports;
        }
        const bool win = mapped_tp < rr_tp;
        mapped_wins += win ? 1 : 0;
        std::cout << "  " << cut.workload << ": intercore " << mapped_tp
                  << " mapped vs " << rr_tp << " round-robin"
                  << (win ? "" : "  [no win]") << ", cut "
                  << cut.cutMapped << " vs " << cut.cutRoundRobin
                  << "\n";
    }

    if (!bench::writeReport(out_path, [&](JsonWriter &json) {
            writeJson(json, rows, cuts, mapped_wins, comm_check_ok);
        }))
        return 1;

    if (!comm_check_ok) {
        std::cout << "FAIL: comm checker reported errors on the 4-core "
                     "ring\n";
        return 1;
    }
    if (mapped_wins < requiredWins) {
        std::cout << "FAIL: greedy mapping beats round-robin on only "
                  << mapped_wins << "/" << cuts.size()
                  << " workloads (need >= " << requiredWins << ")\n";
        return 1;
    }
    std::cout << "PASS: clean comm replay, mapping wins "
              << mapped_wins << "/" << cuts.size() << "\n";
    return 0;
}
