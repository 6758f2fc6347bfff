#include "verify/bound_checker.hh"

#include "analysis/resource_estimator.hh"
#include "support/strings.hh"

namespace msq {

namespace {

unsigned long long
ull(uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // anonymous namespace

bool
checkScheduleBounds(const Program &prog, const ProgramSchedule &psched,
                    const MultiSimdArch &arch, CommMode mode,
                    DiagnosticEngine &diags, ProgramGapReport *report,
                    BoundCheckStats *stats)
{
    const size_t errors_before = diags.numErrors();
    MakespanBoundAnalysis analysis(prog, arch, mode, &diags);
    ResourceEstimator invocations(prog);

    BoundCheckStats local_stats;
    if (report != nullptr)
        *report = ProgramGapReport{};

    for (ModuleId id = 0; id < psched.modules.size(); ++id) {
        const ModuleScheduleInfo &info = psched.modules[id];
        if (!info.analyzed)
            continue;
        const Module &mod = prog.module(id);
        for (const Blackbox &bb : info.dims) {
            ++local_stats.dimsChecked;
            const uint64_t lb = analysis.lowerBoundAt(id, bb.width);
            if (bb.length >= lb)
                continue;
            diags.error(
                DiagCode::BoundDimBelowBound,
                csprintf("blackbox dimension (width %u, length %llu) "
                         "is below the width-%u lower bound %llu "
                         "(corrupt schedule or cache entry)",
                         bb.width, ull(bb.length), bb.width, ull(lb)),
                DiagContext{mod.name(), diagNoOp, 0});
        }
        if (!info.leaf || info.dims.empty())
            continue;
        ++local_stats.leavesChecked;
        const ScheduleProvenance provenance =
            info.result ? info.result->attempt.provenance
                        : ScheduleProvenance::Heuristic;
        const bool proven = provenance == ScheduleProvenance::Optimal;
        if (report == nullptr && !proven)
            continue;
        const Blackbox &widest = info.dims.back();
        LeafGapRecord record;
        record.module = mod.name();
        record.gates = mod.numOps();
        record.qubits = mod.numQubits();
        record.invocations = invocations.invocations(id);
        record.width = widest.width;
        record.makespan = widest.length;
        record.provenance = provenance;
        MultiSimdArch sub = arch;
        sub.k = widest.width;
        record.bounds = computeLeafBounds(mod, sub);
        record.lowerBound = record.bounds.composite();
        record.gap = optimalityGap(record.makespan, record.lowerBound);
        // A certificate is an equality claim, checked on the raw
        // integers (never through the float gap): a proven-optimal
        // leaf off its bound means the proof logic or the bound is
        // broken.
        if (proven && record.makespan != record.lowerBound) {
            diags.error(
                DiagCode::BoundOptimalGapNotOne,
                csprintf("schedule is marked proven-optimal but its "
                         "makespan %llu differs from the width-%u "
                         "lower bound %llu (false certificate)",
                         ull(record.makespan), record.width,
                         ull(record.lowerBound)),
                DiagContext{mod.name(), diagNoOp, 0});
        }
        if (report != nullptr)
            report->leaves.push_back(std::move(record));
    }

    const uint64_t program_lb = analysis.programLowerBound();
    if (psched.totalCycles < program_lb) {
        diags.error(
            DiagCode::BoundProgramBelow,
            csprintf("program schedule totals %llu cycle(s) but the "
                     "hierarchical lower bound is %llu (corrupt "
                     "schedule)",
                     ull(psched.totalCycles), ull(program_lb)),
            DiagContext{prog.module(prog.entry()).name(), diagNoOp, 0});
    }
    if (report != nullptr) {
        report->programMakespan = psched.totalCycles;
        report->programLowerBound = program_lb;
        report->programAreaBound = analysis.areaBound(prog.entry());
        report->programGap =
            optimalityGap(psched.totalCycles, program_lb);
    }
    if (stats != nullptr)
        *stats = local_stats;
    return diags.numErrors() == errors_before;
}

} // namespace msq
