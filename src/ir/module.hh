/**
 * @file
 * A module: the unit of hierarchy in the MSQ IR, mirroring a Scaffold
 * function. A module owns a qubit table (parameters first, then locals /
 * ancilla) and an ordered list of operations with sequential semantics;
 * parallelism is recovered by dependence analysis (ir/dag.hh).
 */

#ifndef MSQ_IR_MODULE_HH
#define MSQ_IR_MODULE_HH

#include <array>
#include <string>
#include <vector>

#include "ir/operation.hh"

namespace msq {

/**
 * One module of a quantum program.
 *
 * A module is a *leaf* when it contains no Call operations; only leaves are
 * handed to the fine-grained schedulers (paper §3.1). Qubits are identified
 * by dense indices: indices [0, numParams) are parameters bound at call
 * sites, the rest are module-local ancilla.
 */
class Module
{
  public:
    /** @param name globally unique module name. */
    explicit Module(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Append a parameter qubit; only legal before any local was added. */
    QubitId addParam(const std::string &qubit_name);

    /** Append a local (ancilla) qubit. */
    QubitId addLocal(std::string qubit_name);

    /** Append a contiguous register of @p width locals named base[i]. */
    std::vector<QubitId> addRegister(const std::string &base, size_t width);

    /** Append a gate operation. Operand arity is checked. */
    void addGate(GateKind kind, QubitList operands, double angle = 0.0);

    /** Append a call operation (arity checked later by Program validate). */
    void addCall(ModuleId callee, QubitList args, uint64_t repeat = 1);

    /** Append a pre-built operation (used by pass machinery). */
    void addOperation(Operation op);

    /**
     * Append an operation with no well-formedness checks. For frontends
     * that run the IR verifier (verify/verifier.hh) afterwards, so that
     * malformed input yields collected diagnostics instead of a panic.
     */
    void addRawOperation(Operation op);

    size_t numParams() const { return numParams_; }
    size_t numQubits() const { return qubitNames.size(); }
    size_t numOps() const { return ops_.size(); }

    const std::string &qubitName(QubitId q) const;

    const std::vector<Operation> &ops() const { return ops_; }
    const Operation &op(size_t index) const { return ops_.at(index); }

    /** Replace the whole operation list (used by rewriting passes). */
    void setOps(std::vector<Operation> new_ops);

    /**
     * Ascending indices of the Call operations: the call-graph edges of
     * this module, so that call-graph walks visit calls, not gates.
     */
    const std::vector<uint32_t> &callOps() const { return callOps_; }

    /** @return true when the module contains no Call operations. */
    bool isLeaf() const { return callOps_.empty(); }

    /**
     * Mark this module as never-inline: the flattening pass will keep
     * calls to it as blackboxes regardless of the flattening threshold.
     * The paper uses this for decomposed rotations in Shor's, which "were
     * not inlined into the code, to keep the size manageable" (§5.4).
     */
    void setNoInline(bool no_inline) { noInline_ = no_inline; }
    bool noInline() const { return noInline_; }

    /** Count of non-call gate operations (no recursion into callees). */
    uint64_t localGateCount() const { return numOps() - callOps_.size(); }

    /** Operations of kind @p kind (no recursion into callees), kept
     * beside the call index so that gate-mix folds skip the gates. */
    uint64_t
    localCount(GateKind kind) const
    {
        return kindCounts_[static_cast<size_t>(kind)];
    }

    /**
     * 64-bit structural fingerprint of this module's schedulable shape:
     * the qubit table dimensions plus every operation's kind, operands,
     * callee and repeat count. Deliberately excludes the module name,
     * qubit names and rotation angles — none of them influence
     * dependence analysis, fine-grained scheduling or communication
     * annotation, so structurally identical modules (e.g. outlined
     * rotation sequences differing only in angle) hash equal and can
     * share cached schedules (sched/leaf_cache.hh).
     */
    uint64_t structuralHash() const;

  private:
    std::string name_;
    bool noInline_ = false;
    size_t numParams_ = 0;
    std::vector<std::string> qubitNames;
    std::vector<Operation> ops_;
    std::vector<uint32_t> callOps_; ///< indices into ops_ of the calls
    std::array<uint64_t, numGateKinds> kindCounts_{}; ///< ops per kind
};

} // namespace msq

#endif // MSQ_IR_MODULE_HH
