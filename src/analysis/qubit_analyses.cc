#include "analysis/qubit_analyses.hh"

#include <numeric>
#include <unordered_map>

#include "ir/gate.hh"

namespace msq {

namespace {

bool
isPrepGate(GateKind kind)
{
    return kind == GateKind::PrepZ || kind == GateKind::PrepX;
}

} // anonymous namespace

LivenessAnalysis
LivenessAnalysis::analyze(const Program &prog)
{
    LivenessAnalysis result;
    result.modules_.resize(prog.numModules());
    bool cyclic = false;
    std::vector<ModuleId> order = prog.bottomUpOrder(&cyclic);
    result.valid_ = !cyclic && !order.empty();

    for (ModuleId m : order) {
        const Module &mod = prog.module(m);
        ModuleLiveness &ml = result.modules_[m];
        ml.ranges.assign(mod.numQubits(), {});
        ml.locallyReferenced.assign(mod.numQubits(), 0);
        ml.paramUsed.assign(mod.numParams(), 0);

        for (uint32_t i = 0; i < mod.numOps(); ++i) {
            const Operation &op = mod.op(i);
            const ModuleLiveness *callee =
                op.isCall() && op.callee < prog.numModules()
                    ? &result.modules_[op.callee]
                    : nullptr;
            for (size_t j = 0; j < op.operands.size(); ++j) {
                QubitId q = op.operands[j];
                if (q >= mod.numQubits())
                    continue; // malformed; the verifier reports V002
                ml.locallyReferenced[q] = 1;
                bool effective = true;
                if (op.isCall())
                    effective = !callee || !callee->analyzed ||
                                j >= callee->paramUsed.size() ||
                                callee->paramUsed[j];
                if (!effective)
                    continue;
                if (!ml.ranges[q].used) {
                    ml.ranges[q].used = true;
                    ml.ranges[q].firstUse = i;
                }
                ml.ranges[q].lastUse = i;
            }
        }
        for (size_t p = 0; p < mod.numParams(); ++p)
            ml.paramUsed[p] = ml.ranges[p].used;
        ml.analyzed = true;
    }
    return result;
}

MeasurementDominance
MeasurementDominance::analyze(const Program &prog)
{
    MeasurementDominance result;
    result.summaries_.resize(prog.numModules());
    bool cyclic = false;
    std::vector<ModuleId> order = prog.bottomUpOrder(&cyclic);
    result.valid_ = !cyclic && !order.empty();

    for (ModuleId m : order) {
        const Module &mod = prog.module(m);
        Summary &sum = result.summaries_[m];
        sum.useBeforePrep.assign(mod.numParams(), 0);
        sum.end.assign(mod.numParams(), EndState::Untouched);

        // One walk in program order is exact: the ops on one qubit are
        // totally ordered (no-cloning), so effect[q] before op i is q's
        // own state there, and effect[q] == Measured means q may be
        // measured. measuredByCall records whether that measurement
        // came from a callee; holdsEntry, whether q still holds the
        // caller-provided state. Parameters enter clean: the caller
        // checks its arguments against useBeforePrep instead.
        std::vector<char> measuredByCall(mod.numQubits(), 0);
        std::vector<char> holdsEntry(mod.numQubits(), 0);
        std::vector<EndState> effect(mod.numQubits(), EndState::Untouched);
        for (size_t p = 0; p < mod.numParams(); ++p)
            holdsEntry[p] = 1;

        for (uint32_t i = 0; i < mod.numOps(); ++i) {
            const Operation &op = mod.op(i);
            if (op.isCall()) {
                const Summary *callee =
                    op.callee < prog.numModules() &&
                            result.summaries_[op.callee].analyzed
                        ? &result.summaries_[op.callee]
                        : nullptr;
                // Read every argument's state before the call changes
                // any (a call binding one qubit twice is V012).
                for (size_t j = 0; j < op.operands.size(); ++j) {
                    QubitId q = op.operands[j];
                    if (q >= mod.numQubits() || !callee ||
                        j >= callee->end.size() || !callee->useBeforePrep[j])
                        continue;
                    // A possibly measured argument handed to a callee
                    // that uses it before re-preparing, or a repeated
                    // call whose iteration N+1 re-uses what iteration N
                    // left measured.
                    if (effect[q] == EndState::Measured ||
                        (op.repeat > 1 &&
                         callee->end[j] == EndState::Measured))
                        result.violations_.push_back({m, i, q, true});
                    if (holdsEntry[q] && q < mod.numParams())
                        sum.useBeforePrep[q] = 1;
                }
                for (size_t j = 0; j < op.operands.size(); ++j) {
                    QubitId q = op.operands[j];
                    if (q >= mod.numQubits())
                        continue;
                    // Unknown callee: assume it re-prepares, matching
                    // the verifier's conservative V009 semantics.
                    EndState end = callee && j < callee->end.size()
                                       ? callee->end[j]
                                       : EndState::Prepared;
                    if (end == EndState::Untouched)
                        continue;
                    holdsEntry[q] = 0;
                    measuredByCall[q] = end == EndState::Measured;
                    effect[q] = end;
                }
            } else if (isMeasureGate(op.kind) || isPrepGate(op.kind)) {
                // Measuring an already-measured qubit is legal (mirrors
                // verifier V009); it just refreshes the state locally.
                EndState end = isMeasureGate(op.kind) ? EndState::Measured
                                                      : EndState::Prepared;
                for (QubitId q : op.operands) {
                    if (q >= mod.numQubits())
                        continue;
                    holdsEntry[q] = 0;
                    measuredByCall[q] = 0;
                    effect[q] = end;
                }
            } else {
                for (QubitId q : op.operands) {
                    if (q >= mod.numQubits())
                        continue;
                    if (effect[q] == EndState::Measured)
                        result.violations_.push_back(
                            {m, i, q, measuredByCall[q] != 0});
                    if (holdsEntry[q] && q < mod.numParams())
                        sum.useBeforePrep[q] = 1;
                }
            }
        }

        for (size_t p = 0; p < mod.numParams(); ++p)
            sum.end[p] = effect[p];
        sum.analyzed = true;
    }
    return result;
}

EntanglementGroups
EntanglementGroups::analyze(const Program &prog)
{
    EntanglementGroups result;
    result.modules_.resize(prog.numModules());
    bool cyclic = false;
    std::vector<ModuleId> order = prog.bottomUpOrder(&cyclic);
    result.valid_ = !cyclic && !order.empty();

    for (ModuleId m : order) {
        const Module &mod = prog.module(m);
        ModuleGroups &mg = result.modules_[m];
        mg.parent.resize(mod.numQubits());
        std::iota(mg.parent.begin(), mg.parent.end(), 0);

        auto find = [&mg](QubitId q) {
            while (mg.parent[q] != q) {
                mg.parent[q] = mg.parent[mg.parent[q]]; // path halving
                q = mg.parent[q];
            }
            return q;
        };
        auto unite = [&mg, &find](QubitId a, QubitId b) {
            if (a >= mg.parent.size() || b >= mg.parent.size())
                return;
            QubitId ra = find(a), rb = find(b);
            if (ra != rb)
                mg.parent[rb] = ra;
        };

        for (const Operation &op : mod.ops()) {
            if (!op.isCall()) {
                for (size_t j = 1; j < op.operands.size(); ++j)
                    unite(op.operands[0], op.operands[j]);
                continue;
            }
            const ModuleGroups *callee =
                op.callee < prog.numModules() &&
                        result.modules_[op.callee].analyzed
                    ? &result.modules_[op.callee]
                    : nullptr;
            if (!callee) {
                // Unknown callee: assume it may entangle everything it
                // was handed.
                for (size_t j = 1; j < op.operands.size(); ++j)
                    unite(op.operands[0], op.operands[j]);
                continue;
            }
            // Unite arguments whose parameters the callee connects,
            // possibly through callee locals.
            std::unordered_map<QubitId, QubitId> group_to_arg;
            for (size_t j = 0; j < op.operands.size(); ++j) {
                if (j >= callee->parent.size())
                    break;
                QubitId root = callee->parent[j];
                auto [it, fresh] = group_to_arg.emplace(root, op.operands[j]);
                if (!fresh)
                    unite(it->second, op.operands[j]);
            }
        }

        // Canonicalize so lookups need no unions.
        for (QubitId q = 0; q < mg.parent.size(); ++q)
            mg.parent[q] = find(q);
        mg.analyzed = true;
    }
    return result;
}

size_t
EntanglementGroups::numEntangledGroups(ModuleId m) const
{
    if (m >= modules_.size() || !modules_[m].analyzed)
        return 0;
    const ModuleGroups &mg = modules_[m];
    std::unordered_map<QubitId, size_t> sizes;
    for (QubitId root : mg.parent)
        ++sizes[root];
    size_t groups = 0;
    for (const auto &entry : sizes)
        if (entry.second >= 2)
            ++groups;
    return groups;
}

} // namespace msq
