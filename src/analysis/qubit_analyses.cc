#include "analysis/qubit_analyses.hh"

#include <numeric>
#include <unordered_map>

#include "ir/dag.hh"
#include "ir/gate.hh"

namespace msq {

namespace {

bool
isPrepGate(GateKind kind)
{
    return kind == GateKind::PrepZ || kind == GateKind::PrepX;
}

/**
 * Backward liveness over the dependence DAG. A prep is a definition and
 * kills its operand; every other gate (measurement included) reads its
 * operands; a call reads exactly the arguments its callee transitively
 * uses. Unknown callees (invalid id, unanalyzed) read everything.
 */
class LivenessProblem : public DataflowProblem
{
  public:
    LivenessProblem(const Program &prog,
                    const std::vector<ModuleLiveness> &mods)
        : prog(prog), mods(mods)
    {}

    DataflowDirection direction() const override
    {
        return DataflowDirection::Backward;
    }

    void
    transfer(const Module &mod, uint32_t op_index,
             QubitSet &state) const override
    {
        (void)mod;
        const Operation &op = mod.op(op_index);
        if (op.isCall()) {
            const ModuleLiveness *callee =
                op.callee < prog.numModules() ? &mods[op.callee] : nullptr;
            for (size_t j = 0; j < op.operands.size(); ++j) {
                bool uses = !callee || !callee->analyzed ||
                            j >= callee->paramUsed.size() ||
                            callee->paramUsed[j];
                if (uses)
                    state.set(op.operands[j]);
            }
        } else if (isPrepGate(op.kind)) {
            for (QubitId q : op.operands)
                state.reset(q);
        } else {
            for (QubitId q : op.operands)
                state.set(q);
        }
    }

  private:
    const Program &prog;
    const std::vector<ModuleLiveness> &mods;
};

/**
 * Forward may-measured state. Measurement sets, preparation clears, a
 * call applies its callee's per-parameter end-state summary. The
 * boundary is empty: parameters are assumed clean on entry, and the
 * caller checks its arguments against the callee's useBeforePrep
 * summary instead.
 */
class MayMeasuredProblem : public DataflowProblem
{
  public:
    MayMeasuredProblem(const Program &prog,
                       const std::vector<MeasurementDominance::Summary> &sums)
        : prog(prog), sums(sums)
    {}

    DataflowDirection direction() const override
    {
        return DataflowDirection::Forward;
    }

    void
    transfer(const Module &mod, uint32_t op_index,
             QubitSet &state) const override
    {
        (void)mod;
        const Operation &op = mod.op(op_index);
        if (op.isCall()) {
            const MeasurementDominance::Summary *callee =
                op.callee < prog.numModules() ? &sums[op.callee] : nullptr;
            for (size_t j = 0; j < op.operands.size(); ++j) {
                QubitId q = op.operands[j];
                if (!callee || !callee->analyzed || j >= callee->end.size()) {
                    // Unknown callee: assume it re-prepares, matching
                    // the verifier's conservative V009 semantics.
                    state.reset(q);
                    continue;
                }
                switch (callee->end[j]) {
                  case MeasurementDominance::EndState::Measured:
                    state.set(q);
                    break;
                  case MeasurementDominance::EndState::Prepared:
                    state.reset(q);
                    break;
                  case MeasurementDominance::EndState::Untouched:
                    break;
                }
            }
        } else if (isMeasureGate(op.kind)) {
            for (QubitId q : op.operands)
                state.set(q);
        } else if (isPrepGate(op.kind)) {
            for (QubitId q : op.operands)
                state.reset(q);
        }
        // Any other gate leaves the measured state unchanged; using a
        // measured qubit is the *violation*, detected from the before
        // state, not a state change.
    }

  private:
    const Program &prog;
    const std::vector<MeasurementDominance::Summary> &sums;
};

} // anonymous namespace

LivenessAnalysis
LivenessAnalysis::analyze(const Program &prog)
{
    LivenessAnalysis result;
    result.modules_.resize(prog.numModules());
    std::vector<ModuleId> order = prog.bottomUpOrder(&result.cyclic_);
    result.valid_ = !result.cyclic_ && !order.empty();

    LivenessProblem problem(prog, result.modules_);
    for (ModuleId m : order) {
        const Module &mod = prog.module(m);
        ModuleLiveness &ml = result.modules_[m];
        ml.ranges.assign(mod.numQubits(), {});
        ml.locallyReferenced.assign(mod.numQubits(), 0);
        ml.paramUsed.assign(mod.numParams(), 0);

        DepDag dag = DepDag::build(mod);
        DataflowResult solved = solveDataflow(mod, dag, problem);
        // Backward problem: after[] holds the state before the op in
        // program order, i.e. live-in.
        ml.liveIn = std::move(solved.after);

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

    MayMeasuredProblem problem(prog, result.summaries_);
    for (ModuleId m : order) {
        const Module &mod = prog.module(m);
        Summary &sum = result.summaries_[m];
        sum.useBeforePrep.assign(mod.numParams(), 0);
        sum.end.assign(mod.numParams(), EndState::Untouched);

        DepDag dag = DepDag::build(mod);
        DataflowResult solved = solveDataflow(mod, dag, problem);

        // Sequential walk for facts the bitset solve cannot carry: the
        // *origin* of a measured bit (local measure vs. call) and the
        // per-parameter summary states. Per-qubit facts are exact in a
        // sequential walk because ops on one qubit are totally ordered.
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
                for (size_t j = 0; j < op.operands.size(); ++j) {
                    QubitId q = op.operands[j];
                    if (q >= mod.numQubits())
                        continue;
                    bool known = callee && j < callee->end.size();
                    // Violations visible at this call site: a possibly
                    // measured argument handed to a callee that uses it
                    // before re-preparing...
                    if (known && callee->useBeforePrep[j] &&
                        solved.before[i].test(q))
                        result.violations_.push_back({m, i, q, true});
                    // ...or a repeated call whose iteration N+1 re-uses
                    // what iteration N left measured.
                    else if (known && callee->useBeforePrep[j] &&
                             op.repeat > 1 &&
                             callee->end[j] == EndState::Measured)
                        result.violations_.push_back({m, i, q, true});
                    if (holdsEntry[q] && known && callee->useBeforePrep[j])
                        if (q < mod.numParams())
                            sum.useBeforePrep[q] = 1;
                    if (!known) {
                        holdsEntry[q] = 0;
                        measuredByCall[q] = 0;
                        effect[q] = EndState::Prepared;
                        continue;
                    }
                    switch (callee->end[j]) {
                      case EndState::Measured:
                        holdsEntry[q] = 0;
                        measuredByCall[q] = 1;
                        effect[q] = EndState::Measured;
                        break;
                      case EndState::Prepared:
                        holdsEntry[q] = 0;
                        measuredByCall[q] = 0;
                        effect[q] = EndState::Prepared;
                        break;
                      case EndState::Untouched:
                        break;
                    }
                }
            } else if (isMeasureGate(op.kind)) {
                // Measuring an already-measured qubit is legal (mirrors
                // verifier V009); it just refreshes the state locally.
                for (QubitId q : op.operands) {
                    if (q >= mod.numQubits())
                        continue;
                    holdsEntry[q] = 0;
                    measuredByCall[q] = 0;
                    effect[q] = EndState::Measured;
                }
            } else if (isPrepGate(op.kind)) {
                for (QubitId q : op.operands) {
                    if (q >= mod.numQubits())
                        continue;
                    holdsEntry[q] = 0;
                    measuredByCall[q] = 0;
                    effect[q] = EndState::Prepared;
                }
            } else {
                for (QubitId q : op.operands) {
                    if (q >= mod.numQubits())
                        continue;
                    if (solved.before[i].test(q))
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
