/**
 * @file
 * QASM back-end (paper §3.1): emits technology-independent quantum
 * assembly in hierarchical QASM-HL-style form, one block per module
 * (compact, mirrors ScaffCC's QASM-HL format). Calls stay calls, since
 * paper-scale programs cannot be unrolled (§3.1).
 */

#ifndef MSQ_FRONTEND_QASM_EMITTER_HH
#define MSQ_FRONTEND_QASM_EMITTER_HH

#include <ostream>

#include "ir/program.hh"

namespace msq {

/** Emit hierarchical QASM: one block per reachable module, callees first. */
void emitHierarchicalQasm(std::ostream &os, const Program &prog);

} // namespace msq

#endif // MSQ_FRONTEND_QASM_EMITTER_HH
