/**
 * @file
 * msq-verify: standalone static-analysis driver. Parses Scaffold-subset
 * or hierarchical-QASM input, runs the IR verifier and the circuit
 * linter, optionally the interprocedural dataflow analyses and the
 * communication-schedule race detector, prints every diagnostic with
 * its stable code, and exits nonzero when the input is malformed.
 *
 * Usage: msq-verify [options] <file.scaffold|file.qasm>...
 *   --scaffold      force Scaffold parsing regardless of extension
 *   --qasm          force hierarchical-QASM parsing
 *   --no-lint       run the verifier only (skip L*** warnings)
 *   --Werror        promote warnings to errors (--werror also accepted)
 *   --quiet         print only the per-file summary lines
 *   --dataflow      print interprocedural liveness / entanglement facts
 *   --check-comm    decompose + flatten, schedule every leaf under RCP
 *                   and LPFS, and replay the movement plans through the
 *                   comm-schedule race detector (codes M001-M010);
 *                   also checks each leaf's compute steps (S001,
 *                   S003-S009) and each scheduler's coarse schedule of
 *                   the whole program (C001-C006)
 *   --k=N           regions of the machine --check-comm, --bounds and
 *                   --estimate schedule on (default 4)
 *   --d=N           SIMD width per region of that machine (default
 *                   inf; 0 also means inf)
 *   --local-mem=N   scratchpad capacity of that machine (default 0);
 *                   scratchpads (from this flag or a topology's
 *                   local-mem) make --check-comm also replay
 *                   CommMode::GlobalWithLocalMem and make local the
 *                   default --comm-mode
 *   --topology=SPEC multi-core machine for the scheduling checks
 *                   (parseTopologySpec grammar, e.g.
 *                   "cores=4,k=2,shape=ring,link-bw=1,link-lat=3");
 *                   overrides --k with cores * per-core k; an empty
 *                   spec is the flat machine. Malformed or invalid
 *                   specs (A001-A005), checked once against the final
 *                   machine, exit 2
 *   --threads=N     fan-out of the coarse schedules --check-comm,
 *                   --bounds and --estimate read, and of --estimate's
 *                   recompute (default 1; 0 = hardware concurrency).
 *                   Results are identical for every value; this only
 *                   changes wall-clock time
 *   --bounds        decompose + flatten, coarse-schedule the whole
 *                   program under RCP and LPFS, and check every leaf
 *                   and blackbox dimension against the static makespan
 *                   lower bounds (codes B004-B007); reports per-leaf
 *                   and program optimality gaps (makespan / bound)
 *   --bounds-json=PATH
 *                   write the --bounds gap report as machine-readable
 *                   JSON (schema msq-optimality-gap-v1) to PATH
 *   --scheduler=rcp|lpfs|opt|sequential
 *                   restrict the --check-comm / --bounds / --estimate
 *                   sweeps to one leaf scheduler instead of the default
 *                   RCP+LPFS pair; opt is the branch-and-bound optimal
 *                   tier (sched/opt.hh), whose proven-optimal leaves are
 *                   certified by the B007 check; sequential is the
 *                   one-op-per-step baseline
 *   --opt-budget=N  node budget for --scheduler=opt (default 200000;
 *                   0 forces the fallback everywhere). Budgets are
 *                   counted in search nodes, not wall-clock, so runs
 *                   are bit-identical across machines
 *   --opt-fallback=rcp|lpfs
 *                   which heuristic --scheduler=opt falls back to when
 *                   the leaf is too big or the budget runs out
 *                   (default lpfs)
 *   --comm-mode=none|global|local
 *                   communication model for --bounds / --estimate
 *                   (default global, or local -- global plus local
 *                   memory -- when the machine has scratchpads, from
 *                   --local-mem or the topology's local-mem). Under none,
 *                   makespans are pure compute steps, which is where the
 *                   compute-step lower bounds are tight and
 *                   --scheduler=opt proves most small leaves optimal;
 *                   under global, movement cycles make the bound
 *                   unreachable for communication-bound leaves and opt
 *                   falls back honestly
 *   --estimate      decompose + flatten, then compute the exact
 *                   whole-program resource estimate under RCP and LPFS
 *                   via the schedule-summary analysis (each distinct
 *                   leaf's summary composed through the repeat algebra)
 *                   and cross-check it field-for-field against
 *                   independently computed ground truth (codes
 *                   E001-E006); any divergence is a hard error
 *   --estimate-json=PATH
 *                   write the --estimate report as machine-readable
 *                   JSON (schema msq-resource-estimate-v1) to PATH
 *   --workload=NAME verify the built-in scaled benchmark NAME (e.g.
 *                   grovers, bwt, gse, tfp, bf, cn, sha1, shors)
 *                   instead of / in addition to input files; repeatable.
 *                   The built program passes the IR verifier like a
 *                   parsed file does
 *   --params=paper|scaled|tiny
 *                   which parameter preset --workload builds (default
 *                   scaled; paper instantiates the paper's problem
 *                   sizes, e.g. BWT n=300 s=3000, Shors n=512; tiny
 *                   builds minimum legal sizes whose leaves fit the
 *                   OptScheduler's exhaustive tier)
 *   --scale=N       repeat-wrap each --workload entry module N times
 *                   before checking, multiplying every resource total
 *                   by N without changing the distinct-module set --
 *                   paper-scale (10^9+ gate) instantiation stays cheap
 *                   because estimation is O(distinct leaves)
 *   --metrics-json=PATH
 *                   write the run's metrics registry (verify.* counters
 *                   plus, under --check-comm, --bounds or --estimate,
 *                   the full passes.* / sched.* / comm.* set) as JSON
 *                   to PATH
 *   --trace-json=PATH
 *                   enable the trace recorder and write a Chrome
 *                   trace-event file (chrome://tracing, ui.perfetto.dev)
 *                   to PATH
 *
 * Exit codes: 0 all inputs clean, 1 verification/lint failures,
 * 2 parse or usage errors, or an input whose checks threw (out of
 * memory, say); these win over verification failures.
 */

#include <cctype>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/qubit_analyses.hh"
#include "arch/multi_simd.hh"
#include "core/request.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "frontend/qasm_reader.hh"
#include "sched/comm.hh"
#include "sched/coarse.hh"
#include "sched/opt.hh"
#include "sched/validator.hh"
#include "support/diagnostic.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "verify/bound_checker.hh"
#include "verify/comm_checker.hh"
#include "verify/estimate_checker.hh"
#include "verify/linter.hh"
#include "verify/verifier.hh"
#include "workloads/workloads.hh"

using namespace msq;

namespace {

enum class Format { Auto, Scaffold, Qasm };

enum class Outcome { Clean, Dirty, ParseError };

/** The request keys msq-verify exposes as flags (core/request.hh). */
constexpr std::string_view verifyKeys[] = {
    "k", "d", "local_mem", "topology", "scheduler", "comm_mode", "params",
    "scale"};

struct Options
{
    Format format = Format::Auto;
    bool lint = true;
    bool werror = false;
    bool quiet = false;
    bool dataflow = false;
    bool checkComm = false;
    bool bounds = false;
    bool estimate = false;
    /** The machine and scheduler flags; no scheduler = RCP+LPFS. */
    CompileRequest request;
    bool paramsGiven = false;
    /** What request describes, with --opt-budget / --opt-fallback. */
    ToolflowConfig config;
    unsigned threads = 1;
    bool optBudgetGiven = false;
    bool optFallbackGiven = false;
    std::string boundsJson;
    std::string estimateJson;
    std::string metricsJson;
    std::string traceJson;
    std::vector<std::string> files;
    std::vector<std::string> workloads;
};

/**
 * The leaf schedulers a scheduling check sweeps: the RCP+LPFS pair by
 * default, or the single scheduler --scheduler selected. The opt tier
 * is built to judge its certificates under @p mode, the same
 * communication model the calling check costs schedules with.
 */
std::vector<std::unique_ptr<LeafScheduler>>
makeCheckSchedulers(const Options &options, CommMode mode)
{
    ToolflowConfig config = options.config;
    config.commMode = mode;
    std::vector<SchedulerKind> kinds{SchedulerKind::Rcp, SchedulerKind::Lpfs};
    if (options.request.scheduler)
        kinds = {*options.request.scheduler};
    std::vector<std::unique_ptr<LeafScheduler>> out;
    for (SchedulerKind kind : kinds) {
        config.scheduler = kind;
        out.push_back(Toolflow(config).makeConfiguredScheduler());
    }
    return out;
}

/**
 * The --bounds-json and --estimate-json documents, written while the
 * inputs are checked: each (input, scheduler) appends one element to
 * its report's "inputs" array, and finish() closes both.
 */
struct Reports
{
    std::ostringstream boundsText;
    std::ostringstream estimateText;
    JsonWriter bounds{boundsText};
    JsonWriter estimate{estimateText};

    explicit Reports(const Options &options)
    {
        const std::string arch = options.config.arch.describe();
        const char *mode = commModeName(options.config.commMode);
        bounds.beginObject().member("schema", "msq-optimality-gap-v1",
                                    "arch", arch, "mode", mode);
        bounds.key("inputs").beginArray();
        estimate.beginObject().member(
            "schema", "msq-resource-estimate-v1", "arch", arch,
            "mode", mode, "scale", options.request.scale,
            "params", options.request.params);
        estimate.key("inputs").beginArray();
    }

    void
    finish()
    {
        bounds.endArray().endObject();
        estimate.endArray().endObject();
    }
};

/**
 * One leaf scheduler's coarse schedule of the lowered program: the one
 * schedule --check-comm, --bounds and --estimate all read.
 */
struct CheckSchedule
{
    std::unique_ptr<LeafScheduler> scheduler;
    ProgramSchedule psched;
    /** The run's fresh leaf cache; the estimate checker reuses it. */
    std::shared_ptr<LeafScheduleCache> cache;
    /** The run's leaf-cache traffic, read before any check runs. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
};

/**
 * Coarse-schedule the lowered @p prog once per check scheduler under
 * the configured comm mode, each on a fresh leaf cache. This is the
 * only coarse scheduling msq-verify does.
 */
std::vector<CheckSchedule>
scheduleForChecks(const Program &prog, const Options &options,
                  MetricsRegistry &metrics)
{
    const MultiSimdArch &arch = options.config.arch;
    const CommMode mode = options.config.commMode;
    std::vector<CheckSchedule> out;
    for (auto &scheduler : makeCheckSchedulers(options, mode)) {
        CheckSchedule entry;
        entry.cache = std::make_shared<LeafScheduleCache>();
        CoarseScheduler::Options coarse_options;
        coarse_options.numThreads = options.threads;
        coarse_options.leafCache = entry.cache;
        coarse_options.metrics = &metrics;
        entry.psched = CoarseScheduler(arch, *scheduler, mode,
                                       coarse_options)
                           .schedule(prog);
        entry.cacheHits = entry.cache->hits();
        entry.cacheMisses = entry.cache->misses();
        entry.scheduler = std::move(scheduler);
        out.push_back(std::move(entry));
    }
    return out;
}

void
usage(std::ostream &out)
{
    out << "usage: msq-verify [--scaffold|--qasm] [--no-lint] [--Werror]"
           " [--quiet]\n"
           "                  [--dataflow] [--check-comm] [--k=N] [--d=N|inf]"
           " [--local-mem=N]\n"
           "                  [--topology=SPEC] [--threads=N]\n"
           "                  [--bounds] [--bounds-json=PATH]"
           " [--workload=NAME]\n"
           "                  [--scheduler=rcp|lpfs|opt|sequential]"
           " [--opt-budget=N]\n"
           "                  [--opt-fallback=rcp|lpfs]"
           " [--comm-mode=none|global|local]\n"
           "                  [--estimate] [--estimate-json=PATH]"
           " [--params=paper|scaled|tiny]\n"
           "                  [--scale=N]\n"
           "                  [--metrics-json=PATH] [--trace-json=PATH]\n"
           "                  <file>...\n";
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Print (and, under --Werror, promote) every collected diagnostic,
 * then the summary line, which also counts @p panics. */
void
emitDiagnostics(const std::string &path, const DiagnosticEngine &diags,
                const Options &options, size_t panics)
{
    if (!options.quiet) {
        for (const Diagnostic &diag : diags.diagnostics()) {
            Diagnostic shown = diag;
            if (options.werror && shown.severity == Severity::Warning)
                shown.severity = Severity::Error;
            std::cout << path << ": " << shown.format() << "\n";
        }
    }
    size_t errors = diags.numErrors() + panics;
    size_t warnings = diags.numWarnings();
    if (options.werror) {
        errors += warnings;
        warnings = 0;
    }
    std::cout << path << ": " << errors << " error(s), " << warnings
              << " warning(s)\n";
}

/** --dataflow: human-readable interprocedural facts per module. */
void
printDataflow(const std::string &path, const Program &prog)
{
    LivenessAnalysis liveness = LivenessAnalysis::analyze(prog);
    EntanglementGroups groups = EntanglementGroups::analyze(prog);
    if (!liveness.valid()) {
        std::cout << path << ": dataflow: skipped (no entry module or "
                             "recursive call graph)\n";
        return;
    }
    for (ModuleId id : prog.reachableModules()) {
        const Module &mod = prog.module(id);
        const ModuleLiveness &ml = liveness.module(id);
        std::cout << path << ": dataflow: module " << mod.name() << ": "
                  << mod.numQubits() << " qubit(s) ("
                  << mod.numParams() << " param(s)), " << mod.numOps()
                  << " op(s), " << groups.numEntangledGroups(id)
                  << " entangled group(s)\n";
        for (QubitId q = 0; q < mod.numQubits(); ++q) {
            std::cout << path << ": dataflow:   " << mod.qubitName(q)
                      << ": ";
            if (ml.ranges[q].used) {
                std::cout << "live ops [" << ml.ranges[q].firstUse << ".."
                          << ml.ranges[q].lastUse << "]";
            } else if (ml.locallyReferenced[q]) {
                std::cout << "transitively unused (only passed to calls "
                             "that ignore it)";
            } else {
                std::cout << "never used";
            }
            std::cout << "\n";
        }
    }
}

/**
 * --check-comm: schedule each reachable leaf of the lowered program
 * under RCP and LPFS, derive the movement plan, replay it through the
 * race detector (M001-M010) and validate the compute steps
 * (S001, S003-S009). The replay schedules its own leaves, since it
 * needs their annotated buffers. Then validates every scheduler's
 * coarse schedule in @p schedules (codes C001-C006).
 */
void
checkCommunication(const std::string &path, const Program &prog,
                   const Options &options,
                   const std::vector<CheckSchedule> &schedules,
                   DiagnosticEngine &diags)
{
    const MultiSimdArch &arch = options.config.arch;

    std::vector<CommMode> modes{CommMode::Global};
    if (arch.localMemCapacity > 0)
        modes.push_back(CommMode::GlobalWithLocalMem);

    for (const auto &scheduler :
         makeCheckSchedulers(options, CommMode::Global)) {
        for (CommMode mode : modes) {
            CommunicationAnalyzer analyzer(arch, mode);
            for (ModuleId id : prog.reachableModules()) {
                const Module &mod = prog.module(id);
                if (!mod.isLeaf() || mod.numOps() == 0)
                    continue;
                LeafSchedule sched = scheduler->schedule(mod, arch);
                ResourceSummary summary;
                analyzer.annotate(sched, summary);
                CommCheckStats stats;
                bool ok = checkCommSchedule(sched, arch, diags, &stats);
                validateLeafSchedule(sched, arch, &diags);
                if (!options.quiet) {
                    std::cout << path << ": check-comm ["
                              << scheduler->name() << "/"
                              << commModeName(mode) << "] module "
                              << mod.name() << ": " << stats.steps
                              << " step(s), " << stats.teleports
                              << " teleport(s) (" << stats.maskedTeleports
                              << " masked), " << stats.localMoves
                              << " local move(s)"
                              << (ok ? "" : " -- VIOLATIONS") << "\n";
                }
            }
        }
    }

    for (const CheckSchedule &entry : schedules)
        validateProgramSchedule(prog, entry.psched, arch, &diags);
}

/**
 * --bounds: check every blackbox dimension of each scheduler's coarse
 * schedule and the program total against the static makespan lower
 * bounds (codes B004-B007), and report per-leaf optimality gaps.
 */
void
checkBounds(const std::string &path, const Program &prog,
            const Options &options,
            const std::vector<CheckSchedule> &schedules,
            DiagnosticEngine &diags, MetricsRegistry &metrics,
            JsonWriter &json)
{
    const MultiSimdArch &arch = options.config.arch;
    const CommMode mode = options.config.commMode;

    for (const CheckSchedule &entry : schedules) {
        const LeafScheduler &scheduler = *entry.scheduler;
        ProgramGapReport report;
        BoundCheckStats stats;
        const bool ok = checkScheduleBounds(prog, entry.psched, arch,
                                            mode, diags, &report, &stats);
        metrics.counter("verify.bounds.leaves").add(stats.leavesChecked);
        metrics.counter("verify.bounds.dims").add(stats.dimsChecked);
        if (!ok)
            metrics.counter("verify.bounds.violations").add(1);

        uint64_t proven = 0;
        for (const LeafGapRecord &leaf : report.leaves)
            if (leaf.provenance == ScheduleProvenance::Optimal)
                ++proven;
        if (!options.quiet) {
            for (const LeafGapRecord &leaf : report.leaves) {
                std::cout << path << ": bounds [" << scheduler.name()
                          << "] leaf " << leaf.module << ": makespan "
                          << leaf.makespan << ", bound "
                          << leaf.lowerBound << " (cp "
                          << leaf.bounds.criticalPath << ", res "
                          << leaf.bounds.resource << ", int "
                          << leaf.bounds.interval << "), gap "
                          << csprintf("%.3f", leaf.gap) << " ["
                          << scheduleProvenanceName(leaf.provenance)
                          << "]\n";
            }
        }
        std::cout << path << ": bounds [" << scheduler.name()
                  << "]: program makespan " << report.programMakespan
                  << ", bound " << report.programLowerBound << ", gap "
                  << csprintf("%.3f", report.programGap) << ", "
                  << report.leaves.size() << " leaf record(s), "
                  << proven << " proven optimal"
                  << (ok ? "" : " -- VIOLATIONS") << "\n";

        json.beginObject().member("input", path, "scheduler",
                                  scheduler.name(), "saturated",
                                  report.saturated());
        json.key("program").beginObject();
        json.member("makespan", report.programMakespan,
                    "lower_bound", report.programLowerBound,
                    "gap", report.programGap);
        json.endObject().key("leaves").beginArray();
        for (const LeafGapRecord &leaf : report.leaves) {
            json.beginObject().member(
                "module", leaf.module, "gates", leaf.gates,
                "qubits", leaf.qubits, "invocations", leaf.invocations,
                "width", leaf.width, "makespan", leaf.makespan,
                "critical_path_bound", leaf.bounds.criticalPath,
                "resource_bound", leaf.bounds.resource,
                "interval_bound", leaf.bounds.interval,
                "lower_bound", leaf.lowerBound, "gap", leaf.gap,
                "provenance", scheduleProvenanceName(leaf.provenance));
            json.endObject();
        }
        json.endArray().endObject();
    }
}

/** @return @p name ("interCoreTeleports") as a JSON key
 * ("inter_core_teleports"). */
std::string
snakeCase(std::string_view name)
{
    std::string key;
    for (char c : name) {
        if (std::isupper(static_cast<unsigned char>(c))) {
            key += '_';
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        }
        key += c;
    }
    return key;
}

/**
 * --estimate: compose the exact schedule-summary resource estimate
 * from each scheduler's coarse schedule and cross-check it against
 * independently computed ground truth (codes E001-E006). The estimate
 * itself is O(distinct leaves) and survives any --scale factor; the
 * E004 unrolled-walk cross-check is budget-gated and silently skipped
 * at true paper scale.
 */
void
checkEstimate(const std::string &path, const Program &prog,
              const Options &options,
              const std::vector<CheckSchedule> &schedules,
              DiagnosticEngine &diags, MetricsRegistry &metrics,
              JsonWriter &json)
{
    const MultiSimdArch &arch = options.config.arch;
    const CommMode mode = options.config.commMode;

    for (const CheckSchedule &entry : schedules) {
        const LeafScheduler &scheduler = *entry.scheduler;
        ProgramResourceEstimate est = computeProgramEstimate(
            prog, entry.psched, mode, &metrics, &diags);

        // The checker's fresh schedule reuses the populated cache, so
        // it cross-checks the cached leaves instead of paying for a
        // second sweep of the widths.
        EstimateOptions eopts;
        eopts.numThreads = options.threads;
        eopts.cache = entry.cache;
        EstimateCheckStats stats;
        const bool exact = checkEstimateExactness(
            prog, arch, scheduler, mode, est, diags, eopts, &stats);

        const ResourceSummary &sum = est.program;
        if (!options.quiet) {
            std::cout << path << ": estimate [" << scheduler.name()
                      << "] serial: " << sum.serialCycles
                      << " cycle(s) (" << sum.commCycles << " comm, "
                      << csprintf("%.1f", 100.0 * sum.commFraction())
                      << "%)\n";
            std::cout << path << ": estimate [" << scheduler.name()
                      << "] comm: " << sum.teleportMoves
                      << " teleport(s) (" << sum.blockingTeleports
                      << " blocking), " << sum.localMoves
                      << " local move(s), " << sum.eprPairs()
                      << " EPR pair(s)\n";
            std::cout << path << ": estimate [" << scheduler.name()
                      << "] leaves: " << est.distinctLeafSchedules
                      << " distinct schedule(s), " << est.leafModules
                      << " leaf module(s), " << est.reachableModules
                      << " reachable, cache " << entry.cacheHits
                      << " hit(s)/" << entry.cacheMisses
                      << " miss(es)\n";
            std::cout << path << ": estimate [" << scheduler.name()
                      << "] occupancy: peak " << sum.peakActiveRegions
                      << " region(s), mean "
                      << csprintf("%.2f", sum.meanRegionOccupancy())
                      << " operand(s)/active region";
            for (size_t b = 0; b < sum.occupancy.size(); ++b) {
                if (sum.occupancy[b] != 0) {
                    std::cout << ", ["
                              << ResourceSummary::occupancyLabel(b)
                              << "] " << sum.occupancy[b];
                }
            }
            std::cout << "\n";
        }
        std::cout << path << ": estimate [" << scheduler.name()
                  << "]: " << sum.gateOps << " gate(s), makespan "
                  << est.makespanCycles << ", speedup "
                  << csprintf("%.2f", est.sequentialSpeedup())
                  << " (naive "
                  << csprintf("%.2f", est.naiveSpeedup()) << "), comm "
                  << csprintf("%.1f", 100.0 * sum.commFraction())
                  << "%, " << est.distinctLeafSchedules
                  << " distinct leaf schedule(s)"
                  << (sum.saturated() ? ", SATURATED" : "")
                  << (exact ? "" : " -- INEXACT") << "\n";

        json.beginObject().member("input", path, "scheduler",
                                  scheduler.name(), "saturated",
                                  sum.saturated(), "exact", exact);
        json.key("checks").beginObject();
        json.member("leaf_folds", stats.leafFoldsChecked,
                    "modules", stats.modulesChecked,
                    "unrolled", stats.unrolledChecked);
        json.endObject().key("program").beginObject();
        for (const ResourceSummary::Member &m : ResourceSummary::members())
            json.member(snakeCase(m.name), m.of(sum));
        json.member("epr_pairs", sum.eprPairs(),
                    "mean_region_occupancy", sum.meanRegionOccupancy(),
                    "comm_fraction", sum.commFraction());
        json.endObject().member(
            "makespan_cycles", est.makespanCycles,
            "sequential_speedup", est.sequentialSpeedup(),
            "naive_speedup", est.naiveSpeedup(),
            "distinct_leaf_schedules", est.distinctLeafSchedules,
            "leaf_modules", est.leafModules,
            "reachable_modules", est.reachableModules);
        json.key("cache").beginObject();
        json.member("hits", entry.cacheHits, "misses", entry.cacheMisses);
        json.endObject().key("occupancy").beginArray();
        for (size_t b = 0; b < sum.occupancy.size(); ++b) {
            json.beginObject().member(
                "bucket", ResourceSummary::occupancyLabel(b),
                "steps", sum.occupancy[b]);
            json.endObject();
        }
        json.endArray().endObject();
    }
}

/**
 * Write one JSON output file through writeJsonFile. An empty @p path
 * (the flag was not given) writes nothing.
 * @return false, after a message on stderr, when the file cannot be
 * opened or fully written.
 */
bool
writeOutput(const std::string &path, const char *what,
            const std::function<void(std::ostream &)> &write)
{
    if (path.empty() || writeJsonFile(path, write))
        return true;
    std::cerr << "msq-verify: cannot write " << what << " to '" << path
              << "'\n";
    return false;
}

/**
 * Post-parse pipeline shared by file and --workload inputs: lint,
 * dataflow printing, and the --check-comm, --bounds and --estimate
 * scheduling checks. Those lower once, through Toolflow::lower under
 * @p lowering, so the checks see the program Toolflow::run schedules,
 * and then all read one coarse schedule per scheduler. @p diags may
 * already hold parse-stage diagnostics.
 */
Outcome
checkProgram(const std::string &label, Program &prog,
             ToolflowConfig lowering, const Options &options,
             DiagnosticEngine &diags,
             MetricsRegistry &metrics, Reports &reports)
{
    if (options.lint)
        lintProgram(prog, diags);

    if (options.dataflow && !diags.hasErrors())
        printDataflow(label, prog);

    // A panic in a scheduling check is an internal error: the summary
    // and the metrics count it like an error diagnostic.
    size_t panics = 0;
    if ((options.checkComm || options.bounds || options.estimate) &&
        !diags.hasErrors()) {
        try {
            lowering.metrics = &metrics;
            Toolflow(std::move(lowering)).lower(prog);
            const std::vector<CheckSchedule> schedules =
                scheduleForChecks(prog, options, metrics);
            if (options.checkComm)
                checkCommunication(label, prog, options, schedules, diags);
            if (options.bounds) {
                checkBounds(label, prog, options, schedules, diags,
                            metrics, reports.bounds);
            }
            if (options.estimate) {
                checkEstimate(label, prog, options, schedules, diags,
                              metrics, reports.estimate);
            }
        } catch (const PanicError &err) {
            std::cerr << label << ": error: scheduling checks: "
                      << err.what() << "\n";
            panics = 1;
        }
    }

    emitDiagnostics(label, diags, options, panics);

    const size_t errors = diags.numErrors() + panics;
    metrics.counter("verify.diagnostics.errors").add(errors);
    metrics.counter("verify.diagnostics.warnings")
        .add(diags.numWarnings());
    bool clean =
        errors == 0 && !(options.werror && diags.numWarnings() > 0);
    metrics.counter(clean ? "verify.files_clean" : "verify.files_dirty")
        .add(1);
    return clean ? Outcome::Clean : Outcome::Dirty;
}

/** @return the outcome for one input file. */
Outcome
checkFile(const std::string &path, const Options &options,
          MetricsRegistry &metrics, Reports &reports)
{
    Format format = options.format;
    if (format == Format::Auto)
        format = endsWith(path, ".qasm") ? Format::Qasm : Format::Scaffold;

    TraceSpan file_span(Telemetry::trace(), "verify:" + path);
    metrics.counter("verify.files").add(1);
    DiagnosticEngine diags;
    Program prog;
    try {
        std::ifstream in(path);
        if (!in) {
            std::cerr << path << ": error: cannot open file\n";
            return Outcome::ParseError;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        prog = format == Format::Qasm
                   ? parseHierarchicalQasm(buffer.str(), &diags)
                   : parseScaffold(buffer.str(), &diags);
    } catch (const FatalError &err) {
        // Lexical / syntax error: the frontend stops at the first one,
        // so the engine has nothing — report and skip the summary.
        std::cerr << path << ": error: " << err.what() << "\n";
        metrics.counter("verify.parse_errors").add(1);
        return Outcome::ParseError;
    }

    // Like an msq-served "source" request: the default rotations.
    return checkProgram(path, prog, options.config, options, diags,
                        metrics, reports);
}

/** @return how diagnostics name the --workload=NAME input. */
std::string
workloadLabel(const std::string &name, const Options &options)
{
    std::string label = "workload:" + name;
    if (options.request.scale > 1)
        label += csprintf(" (x%llu)", static_cast<unsigned long long>(
                                          options.request.scale));
    return label;
}

/** @return the outcome for one --workload=NAME input. */
Outcome
checkWorkload(const std::string &name, const Options &options,
              MetricsRegistry &metrics, Reports &reports)
{
    const std::string label = workloadLabel(name, options);
    TraceSpan span(Telemetry::trace(), "verify:" + label);
    metrics.counter("verify.files").add(1);
    DiagnosticEngine diags;
    Program prog;
    ToolflowConfig lowering = options.config;
    std::string error;
    if (!buildRequestWorkload(options.request, name, prog, lowering,
                              error)) {
        // Unknown shortName — treat like an unreadable input.
        std::cerr << label << ": error: " << error << "\n";
        metrics.counter("verify.parse_errors").add(1);
        return Outcome::ParseError;
    }
    verifyProgram(prog, diags);
    return checkProgram(label, prog, std::move(lowering), options, diags,
                        metrics, reports);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options options;
    OptScheduler::Options optOptions;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const FlagRead read =
            readRequestFlag(options.request, arg, verifyKeys);
        if (read == FlagRead::Rejected) {
            std::cerr << "msq-verify: bad value in '" << arg << "'\n";
            return 2;
        }
        if (read == FlagRead::Set) {
            options.paramsGiven |= startsWith(arg, "--params=");
            continue;
        }
        if (arg == "--scaffold") {
            options.format = Format::Scaffold;
        } else if (arg == "--qasm") {
            options.format = Format::Qasm;
        } else if (arg == "--no-lint") {
            options.lint = false;
        } else if (arg == "--werror" || arg == "--Werror") {
            options.werror = true;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--dataflow") {
            options.dataflow = true;
        } else if (arg == "--check-comm") {
            options.checkComm = true;
        } else if (arg == "--bounds") {
            options.bounds = true;
        } else if (startsWith(arg, "--bounds-json=")) {
            options.boundsJson = arg.substr(14);
            if (options.boundsJson.empty()) {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
        } else if (arg == "--estimate") {
            options.estimate = true;
        } else if (startsWith(arg, "--estimate-json=")) {
            options.estimateJson = arg.substr(16);
            if (options.estimateJson.empty()) {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
        } else if (startsWith(arg, "--opt-budget=")) {
            if (!parseCount(arg.substr(13), optOptions.nodeBudget, 0,
                            unbounded - 1)) {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
            options.optBudgetGiven = true;
        } else if (startsWith(arg, "--opt-fallback=")) {
            const std::string value = arg.substr(15);
            if (value == "rcp") {
                optOptions.fallback = OptFallback::Rcp;
            } else if (value == "lpfs") {
                optOptions.fallback = OptFallback::Lpfs;
            } else {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
            options.optFallbackGiven = true;
        } else if (startsWith(arg, "--workload=")) {
            std::string name = arg.substr(11);
            if (name.empty()) {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
            options.workloads.push_back(std::move(name));
        } else if (startsWith(arg, "--threads=")) {
            uint64_t value = 0;
            if (!parseCount(arg.substr(10), value, 0,
                            std::numeric_limits<unsigned>::max())) {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
            options.threads = static_cast<unsigned>(value);
        } else if (startsWith(arg, "--metrics-json=")) {
            options.metricsJson = arg.substr(15);
            if (options.metricsJson.empty()) {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
        } else if (startsWith(arg, "--trace-json=")) {
            options.traceJson = arg.substr(13);
            if (options.traceJson.empty()) {
                std::cerr << "msq-verify: bad value in '" << arg << "'\n";
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "msq-verify: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        } else {
            options.files.push_back(arg);
        }
    }
    if (options.files.empty() && options.workloads.empty()) {
        usage(std::cerr);
        return 2;
    }
    if (!options.boundsJson.empty() && !options.bounds) {
        std::cerr << "msq-verify: --bounds-json requires --bounds\n";
        return 2;
    }
    if (!options.estimateJson.empty() && !options.estimate) {
        std::cerr << "msq-verify: --estimate-json requires --estimate\n";
        return 2;
    }
    if (options.request.scale > 1 && options.workloads.empty()) {
        std::cerr << "msq-verify: --scale requires --workload\n";
        return 2;
    }
    if (options.paramsGiven && options.workloads.empty()) {
        std::cerr << "msq-verify: --params requires --workload\n";
        return 2;
    }
    const bool opt = options.request.scheduler == SchedulerKind::Opt;
    if (options.optBudgetGiven && !opt) {
        std::cerr << "msq-verify: --opt-budget requires "
                     "--scheduler=opt\n";
        return 2;
    }
    if (options.optFallbackGiven && !opt) {
        std::cerr << "msq-verify: --opt-fallback requires "
                     "--scheduler=opt\n";
        return 2;
    }
    if (options.request.scheduler && !options.checkComm &&
        !options.bounds && !options.estimate) {
        std::cerr << "msq-verify: --scheduler requires --check-comm, "
                     "--bounds, or --estimate\n";
        return 2;
    }
    if (options.request.commMode && !options.bounds &&
        !options.estimate) {
        std::cerr << "msq-verify: --comm-mode requires --bounds or "
                     "--estimate\n";
        return 2;
    }
    // The topology is checked once, against the final machine.
    std::string error;
    std::optional<ToolflowConfig> config =
        toolflowConfig(options.request, error);
    if (!config) {
        std::cerr << "msq-verify: " << error << "\n";
        return 2;
    }
    options.config = std::move(*config);
    options.config.optOptions = optOptions;

    if (!options.traceJson.empty())
        Telemetry::trace().setEnabled(true);
    MetricsRegistry metrics;
    Reports reports(options);

    bool any_dirty = false;
    bool any_parse_error = false;
    // An exception that escapes an input's build or checks (say,
    // std::bad_alloc lowering paper-scale Shor's) fails that input like
    // a parse error; the other inputs still run.
    auto tally = [&](const std::string &label, const auto &check) {
        Outcome outcome = Outcome::ParseError;
        try {
            outcome = check();
        } catch (const std::exception &err) {
            std::cerr << label << ": error: " << err.what() << "\n";
        }
        if (outcome == Outcome::Dirty)
            any_dirty = true;
        else if (outcome == Outcome::ParseError)
            any_parse_error = true;
    };
    for (const auto &path : options.files) {
        tally(path,
              [&] { return checkFile(path, options, metrics, reports); });
    }
    for (const auto &name : options.workloads) {
        tally(workloadLabel(name, options), [&] {
            return checkWorkload(name, options, metrics, reports);
        });
    }
    reports.finish();
    // Every output is attempted; any failure exits 2.
    const bool written =
        writeOutput(options.boundsJson, "bounds report",
                    [&](std::ostream &os) {
                        os << reports.boundsText.str();
                    }) &
        writeOutput(options.estimateJson, "estimate report",
                    [&](std::ostream &os) {
                        os << reports.estimateText.str();
                    }) &
        writeOutput(options.metricsJson, "metrics",
                    [&](std::ostream &os) {
                        metrics.snapshot().writeJson(os);
                    }) &
        writeOutput(options.traceJson, "trace", [](std::ostream &os) {
            Telemetry::trace().writeChromeTrace(os);
        });
    if (!written)
        any_parse_error = true;
    if (any_parse_error)
        return 2;
    return any_dirty ? 1 : 0;
}
