#include "verify/linter.hh"

#include <array>
#include <cmath>
#include <vector>

#include "analysis/qubit_analyses.hh"
#include "support/strings.hh"

namespace msq {

namespace {

DiagContext
at(const Module &mod, uint32_t op_index, const Operation &op)
{
    return {mod.name(), op_index, op.line};
}

/** L001: qubits never referenced by any operation. */
void
lintUnusedQubits(const Module &mod, DiagnosticEngine &diags)
{
    std::vector<bool> used(mod.numQubits(), false);
    for (const Operation &op : mod.ops())
        for (QubitId q : op.operands)
            if (q < used.size())
                used[q] = true;
    for (QubitId q = 0; q < mod.numQubits(); ++q) {
        if (used[q])
            continue;
        const char *role = q < mod.numParams() ? "parameter" : "local";
        diags.warning(DiagCode::UnusedQubit,
                      csprintf("%s qubit %u ('%s') is never used", role, q,
                               mod.qubitName(q).c_str()),
                      {mod.name()});
    }
}

/**
 * L002: dead gates after terminal measurement. A qubit "escapes" when
 * it is measured or passed to a callee; a non-call, non-measure gate
 * all of whose operands are past their final escape — and at least one
 * of which was actually measured — cannot influence any outcome.
 */
void
lintDeadGates(const Module &mod, DiagnosticEngine &diags)
{
    constexpr uint32_t never = ~uint32_t{0};
    std::vector<uint32_t> last_escape(mod.numQubits(), never);
    std::vector<bool> ever_measured(mod.numQubits(), false);
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        const Operation &op = mod.op(i);
        bool escapes = op.isCall() || isMeasureGate(op.kind);
        for (QubitId q : op.operands) {
            if (q >= mod.numQubits())
                continue;
            if (escapes)
                last_escape[q] = i;
            if (isMeasureGate(op.kind))
                ever_measured[q] = true;
        }
    }
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        const Operation &op = mod.op(i);
        if (op.isCall() || isMeasureGate(op.kind) || op.operands.empty())
            continue;
        bool all_past = true;
        bool any_measured = false;
        for (QubitId q : op.operands) {
            if (q >= mod.numQubits()) {
                // Malformed operand; the verifier reports it.
                all_past = false;
                break;
            }
            all_past = all_past &&
                       (last_escape[q] != never && i > last_escape[q]);
            any_measured = any_measured || ever_measured[q];
        }
        if (all_past && any_measured) {
            diags.warning(DiagCode::DeadGate,
                          csprintf("gate %s follows the final measurement "
                                   "of all its operands (dead code)",
                                   gateName(op.kind)),
                          at(mod, i, op));
        }
    }
}

/** Would @p b undo @p a when run immediately after it? */
bool
isInversePair(const Operation &a, const Operation &b)
{
    if (a.isCall() || b.isCall() || a.operands != b.operands)
        return false;
    switch (a.kind) {
      case GateKind::PrepZ:
      case GateKind::PrepX:
      case GateKind::MeasZ:
      case GateKind::MeasX:
        return false; // no inverse
      case GateKind::Rx:
      case GateKind::Ry:
      case GateKind::Rz:
        return b.kind == a.kind && b.angle == -a.angle;
      default:
        return daggerOf(a.kind) == b.kind;
    }
}

/** The diagonal basis in which @p op acts on its operand @p q, for the
 * commutation check: two gates sharing a qubit commute when both are
 * diagonal in the same basis on it. */
enum class DiagonalBasis : uint8_t { None, Z, X };

DiagonalBasis
operandBasis(const Operation &op, QubitId q)
{
    switch (op.kind) {
      case GateKind::Z:
      case GateKind::S:
      case GateKind::Sdag:
      case GateKind::T:
      case GateKind::Tdag:
      case GateKind::Rz:
      case GateKind::CZ:
        return DiagonalBasis::Z;
      case GateKind::X:
      case GateKind::Rx:
        return DiagonalBasis::X;
      case GateKind::CNOT:
        // Diagonal in Z on the control, in X on the target.
        return op.operands[0] == q ? DiagonalBasis::Z : DiagonalBasis::X;
      default:
        // H, Y, Ry, prep, measure, Swap, Toffoli, Fredkin, calls:
        // assume nothing.
        return DiagonalBasis::None;
    }
}

/** Conservative: true only when @p a and @p b provably commute —
 * disjoint operand sets, or a matching diagonal basis on every shared
 * qubit. */
bool
commutes(const Operation &a, const Operation &b)
{
    for (QubitId q : a.operands) {
        bool shared = false;
        for (QubitId r : b.operands)
            shared = shared || q == r;
        if (!shared)
            continue;
        if (a.isCall() || b.isCall())
            return false;
        DiagonalBasis ba = operandBasis(a, q);
        DiagonalBasis bb = operandBasis(b, q);
        if (ba == DiagonalBasis::None || ba != bb)
            return false;
    }
    return true;
}

/**
 * L003: gate/inverse pairs that cancel to identity — adjacent, or
 * separated only by gates that provably commute with the first of the
 * pair (so the pair can be slid together and dropped).
 */
void
lintUncancelledInverses(const Module &mod, DiagnosticEngine &diags)
{
    // How far past op i to search for its inverse. Bounds the quadratic
    // worst case; real cancellation bugs sit close together.
    constexpr uint32_t lookahead = 32;

    std::vector<bool> consumed(mod.numOps(), false);
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        if (consumed[i])
            continue;
        const Operation &a = mod.op(i);
        if (a.isCall())
            continue;
        uint32_t limit = mod.numOps();
        if (limit - i > lookahead + 1)
            limit = i + 1 + lookahead;
        for (uint32_t j = i + 1; j < limit; ++j) {
            if (consumed[j])
                continue; // a cancelled pair commutes with everything
            const Operation &b = mod.op(j);
            if (isInversePair(a, b)) {
                if (j == i + 1) {
                    diags.warning(
                        DiagCode::UncancelledInverses,
                        csprintf("ops %u/%u: adjacent %s/%s pair cancels "
                                 "to identity; remove it at the source",
                                 i, j, gateName(a.kind), gateName(b.kind)),
                        at(mod, i, a));
                } else {
                    diags.warning(
                        DiagCode::UncancelledInverses,
                        csprintf("ops %u/%u: %s/%s pair separated only by "
                                 "commuting gates cancels to identity; "
                                 "remove it at the source",
                                 i, j, gateName(a.kind), gateName(b.kind)),
                        at(mod, i, a));
                }
                consumed[i] = true;
                consumed[j] = true;
                break;
            }
            if (!commutes(a, b))
                break;
        }
    }
}

/** L004: rotations finer than the decomposer can resolve. */
void
lintRotationPrecision(const Module &mod, DiagnosticEngine &diags,
                      const LintOptions &options)
{
    for (uint32_t i = 0; i < mod.numOps(); ++i) {
        const Operation &op = mod.op(i);
        if (!isRotationGate(op.kind))
            continue;
        if (std::fabs(op.angle) >= options.rotationPrecisionFloor)
            continue;
        diags.warning(DiagCode::RotationBelowPrecision,
                      csprintf("%s angle %g is below the decomposition "
                               "precision floor %g; gate is effectively "
                               "identity",
                               gateName(op.kind), op.angle,
                               options.rotationPrecisionFloor),
                      at(mod, i, op));
    }
}

/** L005: gate kinds that can never coalesce into a SIMD batch. */
void
lintNonCoalescable(const Module &mod, DiagnosticEngine &diags,
                   const LintOptions &options)
{
    if (!mod.isLeaf() || mod.numOps() < options.coalesceMinOps)
        return;
    std::array<uint64_t, numGateKinds> counts{};
    for (const Operation &op : mod.ops())
        ++counts[static_cast<size_t>(op.kind)];
    for (size_t k = 0; k < numGateKinds; ++k) {
        if (counts[k] != 1)
            continue;
        auto kind = static_cast<GateKind>(k);
        diags.warning(DiagCode::NonCoalescableGate,
                      csprintf("gate kind %s occurs once in this leaf "
                               "module and can never share a SIMD region",
                               gateName(kind)),
                      {mod.name()});
    }
}

/**
 * L007/L008: the interprocedural refinements of L001 and V009. Only
 * runs when the call graph is acyclic with a valid entry — on programs
 * the verifier rejects, the local rules already reported what they
 * could.
 */
void
lintInterprocedural(const Program &prog, DiagnosticEngine &diags,
                    const std::vector<bool> &reachable)
{
    LivenessAnalysis liveness = LivenessAnalysis::analyze(prog);
    if (liveness.valid()) {
        for (ModuleId id = 0; id < prog.numModules(); ++id) {
            if (!reachable[id])
                continue;
            const Module &mod = prog.module(id);
            const ModuleLiveness &ml = liveness.module(id);
            for (QubitId q = 0; q < mod.numQubits(); ++q) {
                if (!ml.locallyReferenced[q] || ml.ranges[q].used)
                    continue;
                const char *role =
                    q < mod.numParams() ? "parameter" : "local";
                diags.warning(
                    DiagCode::InterprocUnusedQubit,
                    csprintf("%s qubit %u ('%s') is only passed to calls "
                             "that never use it",
                             role, q, mod.qubitName(q).c_str()),
                    {mod.name()});
            }
        }
    }

    MeasurementDominance dominance = MeasurementDominance::analyze(prog);
    if (dominance.valid()) {
        for (const MeasurementViolation &v : dominance.violations()) {
            // Local violations are verifier errors (V009); only the
            // cross-call cases V009 cannot see are lint territory.
            if (!v.interprocedural || v.module >= prog.numModules() ||
                !reachable[v.module])
                continue;
            const Module &mod = prog.module(v.module);
            const Operation &op = mod.op(v.opIndex);
            diags.warning(
                DiagCode::InterprocUseAfterMeasure,
                csprintf("qubit %u ('%s') may still be measured across a "
                         "call boundary when this operation uses it",
                         v.qubit, mod.qubitName(v.qubit).c_str()),
                at(mod, v.opIndex, op));
        }
    }
}

} // anonymous namespace

void
lintModule(const Program &prog, ModuleId id, DiagnosticEngine &diags,
           const LintOptions &options)
{
    const Module &mod = prog.module(id);
    lintUnusedQubits(mod, diags);
    lintDeadGates(mod, diags);
    lintUncancelledInverses(mod, diags);
    lintRotationPrecision(mod, diags, options);
    lintNonCoalescable(mod, diags, options);
}

size_t
lintProgram(const Program &prog, DiagnosticEngine &diags,
            const LintOptions &options)
{
    size_t warnings_before = diags.numWarnings();

    // Cycles and bad callee ids are the verifier's concern and must not
    // trip the linter.
    const std::vector<bool> reachable = prog.reachableMask();

    for (ModuleId id = 0; id < prog.numModules(); ++id) {
        if (!reachable[id]) {
            diags.warning(DiagCode::UnreachableModule,
                          csprintf("module %s is unreachable from the "
                                   "entry module",
                                   prog.module(id).name().c_str()),
                          {prog.module(id).name()});
            continue;
        }
        lintModule(prog, id, diags, options);
    }

    lintInterprocedural(prog, diags, reachable);

    return diags.numWarnings() - warnings_before;
}

} // namespace msq
