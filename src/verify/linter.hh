/**
 * @file
 * Circuit linter: pass-style checks for legal-but-suspicious circuits
 * (codes L001-L008). Unlike the IR verifier, nothing here is a
 * correctness error — each lint flags structure that wastes qubits,
 * gates, or SIMD regions on the Multi-SIMD target:
 *
 *  - L001 unused qubits inflate the Q requirement (Table 1 metric);
 *  - L002 gates past a qubit's last measurement can never influence an
 *    outcome — dead code from a buggy uncompute sequence;
 *  - L003 uncancelled inverse pairs — adjacent or separated only by
 *    commuting gates — cancel to identity, and no toolflow stage
 *    removes them (the paper's flow has no peephole), so they cost
 *    gates and steps until removed at the source;
 *  - L004 rotations below the decomposer's precision floor decompose to
 *    identity-length sequences and should be dropped at the source;
 *  - L005 a gate kind occurring once in a leaf module can never share a
 *    SIMD region with a sibling (paper §4.2's utilization concern);
 *  - L006 unreachable modules are compiled but never executed;
 *  - L007 a qubit threaded through calls whose callees never touch it —
 *    the interprocedural refinement of L001, from the liveness analysis
 *    (analysis/qubit_analyses.hh);
 *  - L008 a use that a measurement may reach across a call boundary —
 *    the interprocedural refinement of verifier V009, which must assume
 *    calls re-prepare their arguments.
 */

#ifndef MSQ_VERIFY_LINTER_HH
#define MSQ_VERIFY_LINTER_HH

#include "ir/program.hh"
#include "support/diagnostic.hh"

namespace msq {

/** Tunables for the linter. */
struct LintOptions
{
    /**
     * Rotations with |angle| below this are flagged L004. Matches the
     * rotation decomposer's default epsilon.
     */
    double rotationPrecisionFloor = 1e-10;

    /**
     * L005 fires only in leaf modules with at least this many
     * operations; single-occurrence kinds in tiny modules are noise.
     */
    size_t coalesceMinOps = 8;
};

/**
 * Lint every module of @p prog (reachable ones get the full battery;
 * unreachable ones are flagged L006). All reports are warnings.
 * @return the number of warnings reported.
 */
size_t lintProgram(const Program &prog, DiagnosticEngine &diags,
                   const LintOptions &options = {});

/** Lint a single module (no reachability check). */
void lintModule(const Program &prog, ModuleId id, DiagnosticEngine &diags,
                const LintOptions &options = {});

} // namespace msq

#endif // MSQ_VERIFY_LINTER_HH
