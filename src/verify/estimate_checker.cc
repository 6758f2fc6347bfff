#include "verify/estimate_checker.hh"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/resource_estimator.hh"
#include "sched/comm.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/** Shorthand for diagnostic message formatting. */
unsigned long long
ull(uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

/**
 * The composition's leaf callback: each leaf's summary from the widest
 * result @p psched points at (the width sweep always ends at k).
 */
ScheduleSummaryAnalysis::LeafSummaryFn
leafSummaryOf(const ProgramSchedule &psched)
{
    return [&psched](const Module &, ModuleId id) {
        return psched.forModule(id).result->summary;
    };
}

} // anonymous namespace

double
ProgramResourceEstimate::sequentialSpeedup() const
{
    if (makespanCycles == 0)
        return 0.0;
    return program.gateOps.toDouble() / static_cast<double>(makespanCycles);
}

double
ProgramResourceEstimate::naiveSpeedup() const
{
    return sequentialSpeedup() *
           static_cast<double>(MultiSimdArch::naiveCyclesPerGate);
}

ProgramResourceEstimate
computeProgramEstimate(const Program &prog, const ProgramSchedule &psched,
                       CommMode mode, MetricsRegistry *metrics,
                       DiagnosticEngine *diags)
{
    TraceSpan span(Telemetry::trace(), "toolflow-estimate");
    std::optional<ScopedTimerMs> timer;
    if (metrics != nullptr)
        timer.emplace(metrics->distribution("toolflow.estimate_ms"));

    ProgramResourceEstimate est;
    est.makespanCycles = psched.totalCycles;

    ScheduleSummaryAnalysis analysis(prog, mode, leafSummaryOf(psched),
                                     diags);
    est.program = analysis.programSummary();
    est.reachableModules = analysis.analyzedModules().size();
    // A coarse run with a leaf cache hands structurally identical
    // leaves one result, so distinct results are distinct schedules.
    std::unordered_set<const LeafScheduleResult *> distinct;
    for (ModuleId id : analysis.analyzedModules()) {
        if (!prog.module(id).isLeaf())
            continue;
        ++est.leafModules;
        distinct.insert(psched.forModule(id).result.get());
    }
    est.distinctLeafSchedules = distinct.size();

    if (metrics != nullptr) {
        MetricsRegistry &reg = *metrics;
        reg.counter("estimate.runs").add(1);
        reg.counter("estimate.distinct_leaf_schedules")
            .add(est.distinctLeafSchedules);
        if (est.program.saturated())
            reg.counter("estimate.saturated_runs").add(1);
        reg.distribution("estimate.program_gates")
            .record(est.program.gateOps.toDouble());
        reg.distribution("estimate.serial_cycles")
            .record(est.program.serialCycles.toDouble());
        reg.distribution("estimate.makespan_cycles")
            .record(static_cast<double>(est.makespanCycles));
        reg.distribution("estimate.comm_fraction")
            .record(est.program.commFraction());
        reg.distribution("estimate.sequential_speedup")
            .record(est.sequentialSpeedup());
    }
    return est;
}

namespace {

/**
 * Call @p check(name, a's value, b's value) on every counter, peak and
 * occupancy bucket of two summaries.
 */
template <typename Check>
void
forEachField(const ResourceSummary &a, const ResourceSummary &b,
             const Check &check)
{
    for (const ResourceSummary::Member &m : ResourceSummary::members())
        check(std::string(m.name), m.of(a), m.of(b));
    for (size_t i = 0; i < a.occupancy.size(); ++i)
        check("occupancy[" + ResourceSummary::occupancyLabel(i) + "]",
              a.occupancy[i], b.occupancy[i]);
}

/** Compare one field of a leaf fold against @p source's value (E001). */
void
checkLeafField(DiagnosticEngine &diags, const Module &mod,
               const char *source, const std::string &field, Count fold,
               Count other)
{
    if (fold == other)
        return;
    diags.error(DiagCode::EstimateLeafFoldMismatch,
                csprintf("leaf summary fold disagrees with the %s on %s: "
                         "fold %s, %s %s",
                         source, field.c_str(), fold.str().c_str(), source,
                         other.str().c_str()),
                DiagContext{mod.name()});
}

/** Compare one composed program field against a cross-check (E004/5). */
void
checkProgramField(DiagnosticEngine &diags, DiagCode code,
                  const char *source, const std::string &field,
                  Count composed, Count independent)
{
    if (composed == independent)
        return;
    diags.error(code,
                csprintf("composed program %s (%s) disagrees with "
                         "the %s (%s)",
                         field.c_str(), composed.str().c_str(), source,
                         independent.str().c_str()));
}

/** Compare a whole composed program summary against a cross-check. */
void
checkProgramSummary(DiagnosticEngine &diags, DiagCode code,
                    const char *source, const ResourceSummary &composed,
                    const ResourceSummary &independent)
{
    forEachField(composed, independent,
                 [&](const std::string &field, Count a, Count b) {
                     checkProgramField(diags, code, source, field, a, b);
                 });
}

/** Accumulator for the E004 literally-unrolled walk: every repeat is
 * executed as that many additions (each leaf run adds its summary
 * once), so a multiplication bug in the composition cannot reproduce
 * itself here. */
struct UnrolledWalk
{
    const Program *prog;
    const std::unordered_map<ModuleId, ResourceSummary> *leafSummaries;
    uint64_t gateCost;
    uint64_t gateComm;
    uint64_t callOverhead;
    uint64_t budget;
    uint64_t visits = 0;

    ResourceSummary sum;

    bool
    walk(ModuleId id)
    {
        const Module &mod = prog->module(id);
        if (mod.isLeaf()) {
            // One op-visit minimum per invocation keeps zero-gate
            // leaves from making the walk budget-blind.
            visits += std::max<uint64_t>(mod.numOps(), 1);
            if (visits > budget)
                return false;
            sum.add(leafSummaries->at(id));
            return true;
        }
        for (const Operation &op : mod.ops()) {
            if (!op.isCall()) {
                ++visits;
                if (visits > budget)
                    return false;
                sum.gateOps += 1;
                sum.serialCycles += gateCost;
                sum.commCycles += gateComm;
                continue;
            }
            for (uint64_t rep = 0; rep < op.repeat; ++rep) {
                sum.serialCycles += callOverhead;
                sum.commCycles += callOverhead;
                sum.callInvocations += 1;
                if (!walk(op.callee))
                    return false;
            }
        }
        return true;
    }
};

} // anonymous namespace

bool
checkEstimateExactness(const Program &prog, const MultiSimdArch &arch,
                       const LeafScheduler &scheduler, CommMode mode,
                       const ProgramResourceEstimate &est,
                       DiagnosticEngine &diags,
                       const EstimateOptions &opts,
                       EstimateCheckStats *stats,
                       uint64_t materialize_budget)
{
    const size_t errors_before = diags.numErrors();
    std::shared_ptr<LeafScheduleCache> cache = opts.cache;
    if (!cache)
        cache = std::make_shared<LeafScheduleCache>();

    // A fresh ProgramSchedule (E002's recompute). Its cache hands
    // structurally identical leaves one result, so E001 below visits
    // each distinct leaf once by result pointer.
    CoarseScheduler::Options copts;
    copts.numThreads = opts.numThreads;
    copts.leafCache = cache;
    CoarseScheduler coarse(arch, scheduler, mode, copts);
    const ProgramSchedule psched = coarse.schedule(prog);

    // E001 — re-schedule each distinct leaf from scratch and compare
    // the streaming fold, field for field, with the summary the
    // CommunicationAnalyzer derives while emitting the moves and with
    // the cached summary the schedule points at (on the caller's cache,
    // the record the estimate composed). The fold and the annotator
    // share no state: the annotator classifies moves as it derives
    // them, the fold re-reads the annotated buffer through steps(). The
    // cached summary was folded at the widest width, which yields the
    // same summary (width invariance, DESIGN.md §9).
    std::unordered_set<const LeafScheduleResult *> folded;
    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        if (!mod.isLeaf())
            continue;
        const LeafScheduleResult *cached = psched.forModule(id).result.get();
        if (!folded.insert(cached).second)
            continue;
        LeafSchedule sched = scheduler.schedule(mod, arch);
        ResourceSummary annotated;
        CommunicationAnalyzer(arch, mode).annotate(sched, annotated);
        ResourceSummary fold = summarizeLeafSchedule(sched, arch);
        forEachField(fold, annotated,
                     [&](const std::string &field, Count a, Count b) {
                         checkLeafField(diags, mod, "communication analyzer",
                                        field, a, b);
                     });
        forEachField(fold, cached->summary,
                     [&](const std::string &field, Count a, Count b) {
                         checkLeafField(diags, mod, "cached summary", field,
                                        a, b);
                     });
        checkLeafField(diags, mod, "schedule", "gateOps/scheduledOps",
                       fold.gateOps, sched.scheduledOps());
        checkLeafField(diags, mod, "schedule",
                       "occupancySteps/computeTimesteps",
                       fold.occupancySteps(), sched.computeTimesteps());
        if (stats != nullptr)
            ++stats->leafFoldsChecked;
    }

    // E002 — the estimate's makespan must equal the fresh schedule's
    // total (determinism + cache-integrity check).
    if (psched.totalCycles != est.makespanCycles) {
        diags.error(
            DiagCode::EstimateMakespanMismatch,
            csprintf("estimate makespan %llu disagrees with a "
                     "freshly computed ProgramSchedule (%llu cycles)",
                     ull(est.makespanCycles), ull(psched.totalCycles)));
    }

    // Recompose from that schedule for the per-module comparisons
    // (composition is O(distinct modules)).
    ScheduleSummaryAnalysis analysis(prog, mode, leafSummaryOf(psched),
                                     nullptr);
    const bool saturated =
        analysis.programSummary().saturated() || est.program.saturated();

    // E002 (continued) — the estimate handed to us must equal the fresh
    // recomposition field-for-field, not just on the makespan: a stale
    // or tampered estimate is as wrong as a nondeterministic scheduler.
    if (!saturated) {
        checkProgramSummary(diags, DiagCode::EstimateMakespanMismatch,
                            "fresh recomposition", est.program,
                            analysis.programSummary());
    }

    // E006 — saturation poisons dependent fields; exactness of those
    // cannot be verified, only flagged.
    if (saturated) {
        diags.warning(
            DiagCode::EstimateSaturated,
            "repeat algebra saturated at 2^128-1 while composing the "
            "estimate; poisoned fields are excluded from exactness "
            "checks");
    }

    // E003 — composed gate totals vs ResourceEstimator, per module.
    // Skip saturated modules: both sides clip to 2^128-1 by design and
    // comparing clipped values proves nothing.
    ResourceEstimator estimator(prog);
    for (ModuleId id : analysis.analyzedModules()) {
        const ResourceSummary &s = analysis.summary(id);
        if (s.saturated())
            continue;
        if (s.gateOps != estimator.totalGates(id)) {
            diags.error(
                DiagCode::EstimateGateAlgebra,
                csprintf("composed gate total %s disagrees with "
                         "ResourceEstimator (%s)",
                         s.gateOps.str().c_str(),
                         estimator.totalGates(id).str().c_str()),
                DiagContext{prog.module(id).name()});
        }
        if (stats != nullptr)
            ++stats->modulesChecked;
    }

    // E005 — invocation-weighted sum of local contributions: an
    // independent *top-down* composition path (the estimator multiplies
    // invocation counts down the call graph; the summary composes up).
    if (!saturated) {
        ResourceSummary weighted;
        Count total_invocations;
        for (ModuleId id : analysis.analyzedModules()) {
            const Count runs = estimator.invocations(id);
            weighted.add(analysis.localContribution(id), runs);
            total_invocations += runs;
        }
        if (!weighted.saturated() && !total_invocations.saturated()) {
            const ResourceSummary &p = analysis.programSummary();
            const char *src = "invocation-weighted sum";
            auto code = DiagCode::EstimateWeightMismatch;
            checkProgramSummary(diags, code, src, p, weighted);
            // Every invocation except the entry's own run is a call.
            checkProgramField(diags, code, src, "callInvocations(total)",
                              p.callInvocations, total_invocations - 1);
        }
    }

    // E004 — the literally unrolled walk: repeats executed as repeated
    // addition, so the composition's repeat *multiplication* is checked
    // against ground-truth iteration. Budget-gated by op visits.
    if (!saturated && estimator.programGates() <= materialize_budget) {
        std::unordered_map<ModuleId, ResourceSummary> leaf_summaries;
        for (ModuleId id : analysis.analyzedModules())
            if (prog.module(id).isLeaf())
                leaf_summaries.emplace(id, analysis.summary(id));
        UnrolledWalk walk;
        walk.prog = &prog;
        walk.leafSummaries = &leaf_summaries;
        walk.gateCost = MultiSimdArch::coarseGateCost(mode);
        walk.gateComm = walk.gateCost - MultiSimdArch::gateCycles;
        walk.callOverhead = MultiSimdArch::callOverhead(mode);
        walk.budget = materialize_budget;
        if (walk.walk(prog.entry())) {
            checkProgramSummary(diags, DiagCode::EstimateUnrolledMismatch,
                                "unrolled walk", analysis.programSummary(),
                                walk.sum);
            if (stats != nullptr)
                stats->unrolledChecked = true;
        }
    }

    return diags.numErrors() == errors_before;
}

} // namespace msq
