/**
 * @file
 * Interprocedural qubit analyses. Each is one walk over every module in
 * program order, visiting modules bottom-up over the call graph and
 * summarizing each module's effect on its parameters so callers can be
 * analyzed without inlining. One walk is exact: no-cloning totally
 * orders the operations that touch one qubit, and Scaffold control flow
 * is classically resolved (paper §3.1), so a qubit's state before an
 * operation is the state its previous operation left.
 *
 *  - LivenessAnalysis: each qubit's first/last effective use. A call
 *    "uses" an argument only when the callee (transitively) touches the
 *    bound parameter, so a qubit threaded through a chain of calls that
 *    never gate it is recognized as dead — the signal behind lint L007.
 *
 *  - MeasurementDominance: is every gate use of a qubit dominated by a
 *    non-measured definition? Refines verifier check V009, which
 *    conservatively assumes any call re-prepares its arguments; here
 *    measurement state flows through call boundaries in both directions
 *    (lint L008 reports the cross-call violations V009 cannot see).
 *
 *  - EntanglementGroups: union-find over multi-qubit gate interactions,
 *    per module, with call arguments united when the callee connects the
 *    bound parameters (possibly through callee locals). Conservative
 *    may-entangle: groups only ever grow.
 *
 * All analyses degrade gracefully on programs the IR verifier would
 * reject (no entry, recursion): Program::bottomUpOrder(&cyclic) orders
 * them without panicking, valid() turns false and results read as empty.
 */

#ifndef MSQ_ANALYSIS_QUBIT_ANALYSES_HH
#define MSQ_ANALYSIS_QUBIT_ANALYSES_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"

namespace msq {

/** First/last effective use of one qubit, as op indices. */
struct LiveRange
{
    bool used = false;     ///< qubit has at least one effective use
    uint32_t firstUse = 0; ///< first op index that effectively uses it
    uint32_t lastUse = 0;  ///< last op index that effectively uses it
};

/** Liveness facts for one module. */
struct ModuleLiveness
{
    bool analyzed = false;

    /** Per qubit: effective-use range. A call site is an effective use
     * of an argument only when the callee transitively uses the bound
     * parameter. */
    std::vector<LiveRange> ranges;

    /** Per parameter: transitively used by this module (summary). */
    std::vector<char> paramUsed;

    /** Per qubit: appears as an operand of any op, calls included —
     * regardless of whether the callee uses it. */
    std::vector<char> locallyReferenced;
};

/** Interprocedural qubit liveness (see file comment). */
class LivenessAnalysis
{
  public:
    static LivenessAnalysis analyze(const Program &prog);

    /** False when the program has no entry or a recursive call graph. */
    bool valid() const { return valid_; }

    const ModuleLiveness &module(ModuleId m) const { return modules_.at(m); }

  private:
    bool valid_ = false;
    std::vector<ModuleLiveness> modules_;
};

/** One use of a qubit that may still be measured. */
struct MeasurementViolation
{
    ModuleId module = invalidModule;
    uint32_t opIndex = 0;
    QubitId qubit = 0;

    /** True when the measurement reaches the use across a call boundary
     * (either direction) — exactly the cases verifier V009 cannot see. */
    bool interprocedural = false;
};

/** Interprocedural measurement dominance (see file comment). */
class MeasurementDominance
{
  public:
    /** Effect of a module on one parameter's measured state. */
    enum class EndState : uint8_t {
        Untouched, ///< measured state passes through unchanged
        Prepared,  ///< definitely not measured on return
        Measured,  ///< definitely measured on return
    };

    /** Per-module summary over its parameters. */
    struct Summary
    {
        bool analyzed = false;

        /** Per param: some sensitive gate touches it while it still
         * holds the caller-provided state (so a measured argument is a
         * violation at the call site). */
        std::vector<char> useBeforePrep;

        std::vector<EndState> end; ///< per param
    };

    static MeasurementDominance analyze(const Program &prog);

    /** False when the program has no entry or a recursive call graph. */
    bool valid() const { return valid_; }
    bool clean() const { return violations_.empty(); }

    const std::vector<MeasurementViolation> &violations() const
    {
        return violations_;
    }

    const Summary &summary(ModuleId m) const { return summaries_.at(m); }

  private:
    bool valid_ = false;
    std::vector<MeasurementViolation> violations_;
    std::vector<Summary> summaries_;
};

/** Interprocedural entanglement-group tracking (see file comment). */
class EntanglementGroups
{
  public:
    static EntanglementGroups analyze(const Program &prog);

    /** False when the program has no entry or a recursive call graph. */
    bool valid() const { return valid_; }

    /** Number of groups of module @p m with at least two members. */
    size_t numEntangledGroups(ModuleId m) const;

  private:
    struct ModuleGroups
    {
        bool analyzed = false;
        /** Canonicalized: parent[q] is q's group representative. */
        std::vector<QubitId> parent;
    };

    std::vector<ModuleGroups> modules_;
    bool valid_ = false;
};

} // namespace msq

#endif // MSQ_ANALYSIS_QUBIT_ANALYSES_HH
