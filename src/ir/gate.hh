/**
 * @file
 * The gate vocabulary of the MSQ intermediate representation.
 *
 * The primitive set mirrors the QASM target of ScaffCC (paper §3.1): the
 * Pauli gates, the Clifford group generators (CNOT, H, S), the T gate,
 * preparation and measurement. Non-primitive gates (Toffoli, Fredkin,
 * arbitrary rotations) are accepted by the IR and lowered by the
 * decomposition passes before scheduling.
 */

#ifndef MSQ_IR_GATE_HH
#define MSQ_IR_GATE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

namespace msq {

/** Every operation kind the IR can represent. */
enum class GateKind : uint8_t {
    // One-qubit primitives.
    X,
    Y,
    Z,
    H,
    S,
    Sdag,
    T,
    Tdag,
    PrepZ,
    PrepX,
    MeasZ,
    MeasX,
    // Two-qubit primitives.
    CNOT,
    CZ,
    // Non-primitive gates, lowered by passes before scheduling.
    Rx,
    Ry,
    Rz,
    Swap,
    Toffoli,
    Fredkin,
    // Module invocation (blackbox at scheduling time).
    Call,

    NumKinds,
};

/** Number of distinct gate kinds (for table sizing). */
constexpr size_t numGateKinds = static_cast<size_t>(GateKind::NumKinds);

namespace detail {

/** One row of the gate table; read through the functions below. */
struct GateInfo
{
    const char *name;
    int arity; ///< qubit operands; -1 for Call
    bool rotation;
    bool primitive;
    bool measure;
};

/** Every kind's properties, indexed by GateKind. */
inline constexpr std::array<GateInfo, numGateKinds> gateTable = {{
    {"X", 1, false, true, false},
    {"Y", 1, false, true, false},
    {"Z", 1, false, true, false},
    {"H", 1, false, true, false},
    {"S", 1, false, true, false},
    {"Sdag", 1, false, true, false},
    {"T", 1, false, true, false},
    {"Tdag", 1, false, true, false},
    {"PrepZ", 1, false, true, false},
    {"PrepX", 1, false, true, false},
    {"MeasZ", 1, false, true, true},
    {"MeasX", 1, false, true, true},
    {"CNOT", 2, false, true, false},
    {"CZ", 2, false, true, false},
    {"Rx", 1, true, false, false},
    {"Ry", 1, true, false, false},
    {"Rz", 1, true, false, false},
    {"Swap", 2, false, false, false},
    {"Toffoli", 3, false, false, false},
    {"Fredkin", 3, false, false, false},
    {"call", -1, false, false, false},
}};

} // namespace detail

/**
 * The most qubit operands any gate kind takes, derived from the gate
 * table: 3, for Toffoli and Fredkin. Only call argument lists are longer,
 * so it is the inline capacity of an Operation's operand list
 * (ir/operation.hh).
 */
constexpr size_t maxGateArity = static_cast<size_t>(std::ranges::max(
    detail::gateTable, {}, &detail::GateInfo::arity).arity);
static_assert(maxGateArity == 3, "Toffoli and Fredkin are the widest gates");

/** @return the mnemonic for @p kind, e.g. "CNOT". */
const char *gateName(GateKind kind);

/** Parse a gate mnemonic; returns false when @p name is unknown. */
bool parseGateName(const std::string &name, GateKind &kind);

/**
 * @return the number of qubit operands @p kind takes, or -1 for Call
 * (whose arity is the callee's parameter count).
 */
int gateArity(GateKind kind);

/** @return true for the arbitrary-angle rotation gates Rx/Ry/Rz. */
bool isRotationGate(GateKind kind);

/**
 * @return true when @p kind belongs to the primitive QASM target set that
 * the Multi-SIMD hardware executes directly.
 */
bool isPrimitiveGate(GateKind kind);

/** @return true for measurement operations (MeasZ/MeasX). */
bool isMeasureGate(GateKind kind);

/** @return the dagger (inverse) of @p kind for self-contained gates.
 * Rotations invert by negating the angle; measurement/prep have no
 * inverse and trigger a panic. */
GateKind daggerOf(GateKind kind);

} // namespace msq

#endif // MSQ_IR_GATE_HH
