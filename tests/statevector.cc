#include "statevector.hh"

#include <cmath>

#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

namespace {

constexpr double invSqrt2 = 0.7071067811865475244;

} // anonymous namespace

StateVector::StateVector(unsigned num_qubits) : numQubits_(num_qubits)
{
    if (num_qubits == 0 || num_qubits > maxQubits) {
        fatal(csprintf("StateVector supports 1..%u qubits, got %u",
                       maxQubits, num_qubits));
    }
    amps.assign(uint64_t{1} << num_qubits, Amplitude{0.0, 0.0});
    amps[0] = Amplitude{1.0, 0.0};
}

void
StateVector::setBasisState(uint64_t basis)
{
    if (basis >= amps.size())
        panic("setBasisState: basis index out of range");
    std::fill(amps.begin(), amps.end(), Amplitude{0.0, 0.0});
    amps[basis] = Amplitude{1.0, 0.0};
}

StateVector::Amplitude
StateVector::amplitude(uint64_t basis) const
{
    if (basis >= amps.size())
        panic("amplitude: basis index out of range");
    return amps[basis];
}

double
StateVector::probabilityOfOne(QubitId q) const
{
    if (q >= numQubits_)
        panic("probabilityOfOne: qubit out of range");
    uint64_t bit = uint64_t{1} << q;
    double p = 0.0;
    for (uint64_t i = 0; i < amps.size(); ++i)
        if (i & bit)
            p += std::norm(amps[i]);
    return p;
}

bool
StateVector::approxEqual(const StateVector &other, double tolerance) const
{
    if (other.numQubits_ != numQubits_)
        return false;
    // Find the relative phase at the largest amplitude, then compare
    // component-wise after unwinding it.
    uint64_t pivot = 0;
    double best = 0.0;
    for (uint64_t i = 0; i < amps.size(); ++i) {
        double mag = std::norm(amps[i]);
        if (mag > best) {
            best = mag;
            pivot = i;
        }
    }
    if (best < tolerance * tolerance)
        return false; // degenerate (unnormalized) state
    if (std::norm(other.amps[pivot]) < tolerance * tolerance)
        return false;
    Amplitude phase = amps[pivot] / other.amps[pivot];
    phase /= std::abs(phase);
    for (uint64_t i = 0; i < amps.size(); ++i) {
        if (std::abs(amps[i] - phase * other.amps[i]) > tolerance)
            return false;
    }
    return true;
}

void
StateVector::applySingleQubit(QubitId q, const Amplitude u[2][2])
{
    uint64_t bit = uint64_t{1} << q;
    for (uint64_t i = 0; i < amps.size(); ++i) {
        if (i & bit)
            continue;
        Amplitude a0 = amps[i];
        Amplitude a1 = amps[i | bit];
        amps[i] = u[0][0] * a0 + u[0][1] * a1;
        amps[i | bit] = u[1][0] * a0 + u[1][1] * a1;
    }
}

void
StateVector::applyControlledX(std::initializer_list<QubitId> controls,
                              QubitId target)
{
    uint64_t ctl_mask = 0;
    for (QubitId c : controls)
        ctl_mask |= uint64_t{1} << c;
    uint64_t bit = uint64_t{1} << target;
    for (uint64_t i = 0; i < amps.size(); ++i) {
        if ((i & ctl_mask) == ctl_mask && !(i & bit))
            std::swap(amps[i], amps[i | bit]);
    }
}

void
StateVector::applyControlledZ(QubitId a, QubitId b)
{
    uint64_t mask = (uint64_t{1} << a) | (uint64_t{1} << b);
    for (uint64_t i = 0; i < amps.size(); ++i)
        if ((i & mask) == mask)
            amps[i] = -amps[i];
}

void
StateVector::applySwap(QubitId a, QubitId b, const Operation &op)
{
    uint64_t bit_a = uint64_t{1} << a;
    uint64_t bit_b = uint64_t{1} << b;
    bool fredkin = op.kind == GateKind::Fredkin;
    uint64_t ctl = fredkin ? uint64_t{1} << op.operands[0] : 0;
    for (uint64_t i = 0; i < amps.size(); ++i) {
        if ((i & bit_a) && !(i & bit_b)) {
            if (fredkin && !(i & ctl))
                continue;
            std::swap(amps[i], amps[(i & ~bit_a) | bit_b]);
        }
    }
}

bool
StateVector::measureZ(QubitId q, SplitMix64 &rng)
{
    double p_one = probabilityOfOne(q);
    bool outcome = rng.nextDouble() < p_one;
    double keep = outcome ? p_one : 1.0 - p_one;
    if (keep <= 0.0)
        panic("measureZ: collapsing onto zero-probability outcome");
    double scale = 1.0 / std::sqrt(keep);
    uint64_t bit = uint64_t{1} << q;
    for (uint64_t i = 0; i < amps.size(); ++i) {
        bool is_one = (i & bit) != 0;
        if (is_one == outcome)
            amps[i] *= scale;
        else
            amps[i] = Amplitude{0.0, 0.0};
    }
    return outcome;
}

void
StateVector::apply(const Operation &op, SplitMix64 &rng)
{
    using GK = GateKind;
    const auto &args = op.operands;
    for (QubitId q : args) {
        if (q >= numQubits_)
            panic("StateVector::apply: operand out of range");
    }

    const Amplitude i1{0.0, 1.0};
    switch (op.kind) {
      case GK::X: {
        const Amplitude u[2][2] = {{0, 1}, {1, 0}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Y: {
        const Amplitude u[2][2] = {{0, -i1}, {i1, 0}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Z: {
        const Amplitude u[2][2] = {{1, 0}, {0, -1}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::H: {
        const Amplitude u[2][2] = {{invSqrt2, invSqrt2},
                                   {invSqrt2, -invSqrt2}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::S: {
        const Amplitude u[2][2] = {{1, 0}, {0, i1}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Sdag: {
        const Amplitude u[2][2] = {{1, 0}, {0, -i1}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::T: {
        const Amplitude u[2][2] = {
            {1, 0}, {0, Amplitude{invSqrt2, invSqrt2}}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Tdag: {
        const Amplitude u[2][2] = {
            {1, 0}, {0, Amplitude{invSqrt2, -invSqrt2}}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Rx: {
        double c = std::cos(op.angle / 2);
        double s = std::sin(op.angle / 2);
        const Amplitude u[2][2] = {{c, -i1 * s}, {-i1 * s, c}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Ry: {
        double c = std::cos(op.angle / 2);
        double s = std::sin(op.angle / 2);
        const Amplitude u[2][2] = {{c, -s}, {s, c}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Rz: {
        Amplitude e_neg = std::exp(-i1 * (op.angle / 2));
        Amplitude e_pos = std::exp(i1 * (op.angle / 2));
        const Amplitude u[2][2] = {{e_neg, 0}, {0, e_pos}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::CNOT:
        applyControlledX({args[0]}, args[1]);
        break;
      case GK::CZ:
        applyControlledZ(args[0], args[1]);
        break;
      case GK::Toffoli:
        applyControlledX({args[0], args[1]}, args[2]);
        break;
      case GK::Swap:
        applySwap(args[0], args[1], op);
        break;
      case GK::Fredkin:
        applySwap(args[1], args[2], op);
        break;
      case GK::PrepZ:
        if (measureZ(args[0], rng)) {
            const Amplitude u[2][2] = {{0, 1}, {1, 0}};
            applySingleQubit(args[0], u);
        }
        break;
      case GK::PrepX: {
        apply(Operation(GK::PrepZ, {args[0]}), rng);
        const Amplitude u[2][2] = {{invSqrt2, invSqrt2},
                                   {invSqrt2, -invSqrt2}};
        applySingleQubit(args[0], u);
        break;
      }
      case GK::MeasZ:
        measureZ(args[0], rng);
        break;
      case GK::MeasX: {
        const Amplitude u[2][2] = {{invSqrt2, invSqrt2},
                                   {invSqrt2, -invSqrt2}};
        applySingleQubit(args[0], u);
        measureZ(args[0], rng);
        applySingleQubit(args[0], u);
        break;
      }
      case GK::Call:
        panic("StateVector: inline calls before simulating");
      default:
        panic(std::string("StateVector: unhandled gate ") +
              gateName(op.kind));
    }
}

void
StateVector::run(const Module &mod, SplitMix64 &rng)
{
    for (const auto &op : mod.ops())
        apply(op, rng);
}

} // namespace msq
