#include "sched/validator.hh"

#include <algorithm>
#include <vector>

#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/** Per-qubit touch bookkeeping for invariant 4 (one timestep). */
struct TouchRecord
{
    QubitId qubit;
    unsigned region;
    uint32_t opIndex;
};

} // anonymous namespace

bool
validateLeafSchedule(const LeafSchedule &sched, const MultiSimdArch &arch,
                     DiagnosticEngine *diags)
{
    // Compatibility mode: with no engine supplied, violations are
    // scheduler bugs and panic on first report.
    DiagnosticEngine panic_engine(DiagnosticEngine::FailMode::Panic);
    DiagnosticEngine &out = diags != nullptr ? *diags : panic_engine;
    size_t errors_before = out.numErrors();

    const Module &mod = sched.module();
    DiagContext mod_ctx{mod.name()};

    if (sched.k() != arch.k) {
        out.error(DiagCode::SchedKMismatch,
                  csprintf("schedule built for k=%u but architecture has "
                           "k=%u",
                           sched.k(), arch.k),
                  mod_ctx);
        // Region-indexed checks below would all be misaligned; stop.
        return false;
    }

    // Invariant 1: coverage; also record each op's timestep. (No check
    // counts a step's regions: a ScheduleBuffer slot's region is < k
    // by construction, so retired code S002 cannot fire.)
    constexpr uint64_t unscheduled = ~uint64_t{0};
    std::vector<uint64_t> op_step(mod.numOps(), unscheduled);
    for (TimestepView step : sched.steps()) {
        const uint64_t ts = step.index();
        std::vector<TouchRecord> touched;
        for (RegionSlotView slot : step) {
            const unsigned r = slot.region();
            uint64_t qubits_touched = 0;
            for (uint32_t op_index : slot.ops()) {
                if (op_index >= mod.numOps()) {
                    out.error(
                        DiagCode::SchedOpOutOfRange,
                        csprintf("step %llu region %u schedules op %u, "
                                 "but the module has %zu ops",
                                 static_cast<unsigned long long>(ts), r,
                                 op_index, mod.numOps()),
                        mod_ctx);
                    continue;
                }
                if (op_step[op_index] != unscheduled) {
                    out.error(
                        DiagCode::SchedOpTwice,
                        csprintf("op %u scheduled twice (steps %llu and "
                                 "%llu)",
                                 op_index,
                                 static_cast<unsigned long long>(
                                     op_step[op_index]),
                                 static_cast<unsigned long long>(ts)),
                        {mod.name(), op_index, mod.op(op_index).line});
                }
                op_step[op_index] = ts;
                const Operation &op = mod.op(op_index);
                // Invariant 3: homogeneity.
                if (op.kind != slot.kind()) {
                    out.error(
                        DiagCode::SchedMixedKinds,
                        csprintf("step %llu region %u mixes %s and %s",
                                 static_cast<unsigned long long>(ts), r,
                                 gateName(slot.kind()),
                                 gateName(op.kind)),
                        {mod.name(), op_index, op.line});
                }
                qubits_touched += op.operands.size();
                for (QubitId q : op.operands)
                    touched.push_back({q, r, op_index});
            }
            // Invariant 5: d budget.
            if (qubits_touched > arch.d) {
                out.error(
                    DiagCode::SchedWidthBudget,
                    csprintf("step %llu region %u touches %llu qubits, "
                             "budget d=%llu",
                             static_cast<unsigned long long>(ts), r,
                             static_cast<unsigned long long>(
                                 qubits_touched),
                             static_cast<unsigned long long>(arch.d)),
                    mod_ctx);
            }
        }
        // Invariant 4: qubit exclusivity across the whole timestep —
        // covers duplicates both within one region slot and across
        // different regions of the same step.
        std::sort(touched.begin(), touched.end(),
                  [](const TouchRecord &a, const TouchRecord &b) {
                      return a.qubit < b.qubit;
                  });
        for (size_t i = 1; i < touched.size(); ++i) {
            if (touched[i].qubit != touched[i - 1].qubit)
                continue;
            out.error(
                DiagCode::SchedQubitConflict,
                csprintf("step %llu touches qubit %u twice (op %u in "
                         "region %u and op %u in region %u)",
                         static_cast<unsigned long long>(ts),
                         touched[i].qubit, touched[i - 1].opIndex,
                         touched[i - 1].region, touched[i].opIndex,
                         touched[i].region),
                {mod.name(), touched[i].opIndex,
                 mod.op(touched[i].opIndex).line});
        }
    }
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        if (op_step[i] == unscheduled) {
            out.error(DiagCode::SchedOpMissing,
                      csprintf("op %u never scheduled", i),
                      {mod.name(), i, mod.op(i).line});
        }
    }

    // Invariant 2: dependences strictly ordered, checked without the
    // schedulers' DepDag. In program order, each op must run after the
    // previous user of every one of its qubits; orderings between
    // earlier users follow by induction. Unscheduled ops were already
    // reported; skip their pairs.
    constexpr uint32_t no_user = ~uint32_t{0};
    std::vector<uint32_t> last_user(mod.numQubits(), no_user);
    std::vector<uint32_t> preds;
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        preds.clear();
        for (QubitId q : mod.op(i).operands) {
            if (last_user[q] != no_user)
                preds.push_back(last_user[q]);
            last_user[q] = i;
        }
        if (op_step[i] == unscheduled)
            continue;
        std::sort(preds.begin(), preds.end());
        preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
        for (uint32_t p : preds) {
            if (op_step[p] == unscheduled || op_step[i] > op_step[p])
                continue;
            out.error(
                DiagCode::SchedDependence,
                csprintf("op %u (step %llu) depends on op %u "
                         "(step %llu)",
                         i, static_cast<unsigned long long>(op_step[i]),
                         p, static_cast<unsigned long long>(op_step[p])),
                {mod.name(), i, mod.op(i).line});
        }
    }

    return out.numErrors() == errors_before;
}

bool
validateProgramSchedule(const Program &prog, const ProgramSchedule &psched,
                        const MultiSimdArch &arch, DiagnosticEngine *diags)
{
    DiagnosticEngine panic_engine(DiagnosticEngine::FailMode::Panic);
    DiagnosticEngine &out = diags != nullptr ? *diags : panic_engine;
    size_t errors_before = out.numErrors();

    if (psched.modules.size() != prog.numModules()) {
        out.error(DiagCode::CoarseNotAnalyzed,
                  csprintf("schedule covers %zu modules, program has %zu",
                           psched.modules.size(), prog.numModules()));
        return false;
    }

    // Self-contained: the program may not have been validated.
    const std::vector<bool> reachable = prog.reachableMask();

    for (ModuleId id = 0; id < prog.numModules(); ++id) {
        if (!reachable[id])
            continue;
        const Module &mod = prog.module(id);
        const ModuleScheduleInfo &info = psched.modules[id];
        DiagContext ctx{mod.name()};
        if (!info.analyzed) {
            out.error(DiagCode::CoarseNotAnalyzed,
                      "reachable module was never scheduled", ctx);
            continue;
        }
        if (info.leaf != mod.isLeaf()) {
            out.error(DiagCode::CoarseLeafMismatch,
                      csprintf("schedule marks module as %s but it is %s",
                               info.leaf ? "leaf" : "non-leaf",
                               mod.isLeaf() ? "leaf" : "non-leaf"),
                      ctx);
        }
        if (info.dims.empty()) {
            out.error(DiagCode::CoarseNoDims,
                      "analyzed module offers no blackbox dimensions",
                      ctx);
            continue;
        }
        for (size_t i = 0; i < info.dims.size(); ++i) {
            const Blackbox &bb = info.dims[i];
            if (bb.width < 1 || bb.width > arch.k) {
                out.error(DiagCode::CoarseWidthExceedsK,
                          csprintf("dimension %zu has width %u outside "
                                   "[1, k=%u]",
                                   i, bb.width, arch.k),
                          ctx);
            }
            if (i == 0)
                continue;
            if (bb.width <= info.dims[i - 1].width ||
                bb.length > info.dims[i - 1].length) {
                out.error(
                    DiagCode::CoarseDimsNotMonotone,
                    csprintf("dimensions not monotone at index %zu: "
                             "(w=%u, len=%llu) after (w=%u, len=%llu)",
                             i, bb.width,
                             static_cast<unsigned long long>(bb.length),
                             info.dims[i - 1].width,
                             static_cast<unsigned long long>(
                                 info.dims[i - 1].length)),
                    ctx);
            }
        }
    }

    if (prog.entry() != invalidModule) {
        const ModuleScheduleInfo &entry_info =
            psched.modules[prog.entry()];
        if (entry_info.analyzed && !entry_info.dims.empty() &&
            psched.totalCycles != entry_info.bestLength()) {
            out.error(
                DiagCode::CoarseTotalMismatch,
                csprintf("totalCycles=%llu but entry module's best "
                         "length is %llu",
                         static_cast<unsigned long long>(
                             psched.totalCycles),
                         static_cast<unsigned long long>(
                             entry_info.bestLength())),
                {prog.module(prog.entry()).name()});
        }
    }
    return out.numErrors() == errors_before;
}

} // namespace msq
