/**
 * @file
 * Dense state-vector simulation of small quantum circuits.
 *
 * The paper's benchmarks (10^7-10^12 gates, hundreds of thousands of
 * qubits) "can not be simulated on any classical computer" (§3) — the
 * whole toolflow is built on static analysis instead. This test-only
 * simulator unit-validates gate semantics and proves the
 * Toffoli/Fredkin/Swap expansions exact on small circuits; no library
 * target links it. It is deliberately capped at a laptop-friendly
 * qubit count.
 */

#ifndef MSQ_TESTS_STATEVECTOR_HH
#define MSQ_TESTS_STATEVECTOR_HH

#include <complex>
#include <initializer_list>
#include <vector>

#include "ir/module.hh"
#include "support/rng.hh"

namespace msq {

/** Dense 2^n-amplitude simulator over the full IR gate set. */
class StateVector
{
  public:
    using Amplitude = std::complex<double>;

    /** Largest supported register (2^24 amplitudes = 256 MiB). */
    static constexpr unsigned maxQubits = 24;

    /** Initialize |0...0> on @p num_qubits qubits. */
    explicit StateVector(unsigned num_qubits);

    unsigned numQubits() const { return numQubits_; }

    /**
     * Apply one operation. Unitaries evolve the state; PrepZ/PrepX
     * measure-and-reset; MeasZ/MeasX sample an outcome with @p rng and
     * collapse. Call operations panic (inline the program first).
     */
    void apply(const Operation &op, SplitMix64 &rng);

    /** Run every operation of a leaf module in order. */
    void run(const Module &mod, SplitMix64 &rng);

    /** Amplitude of computational basis state @p basis. */
    Amplitude amplitude(uint64_t basis) const;

    /** Probability that measuring @p q yields 1. */
    double probabilityOfOne(QubitId q) const;

    /**
     * State equality up to global phase (and numerical tolerance) —
     * the right notion for checking circuit identities.
     */
    bool approxEqual(const StateVector &other, double tolerance) const;

    /** Set the state to computational basis state @p basis. */
    void setBasisState(uint64_t basis);

  private:
    unsigned numQubits_;
    std::vector<Amplitude> amps;

    void applySingleQubit(QubitId q, const Amplitude u[2][2]);
    void applyControlledX(std::initializer_list<QubitId> controls,
                          QubitId target);
    void applyControlledZ(QubitId a, QubitId b);
    void applySwap(QubitId a, QubitId b, const Operation &op);
    /** Sample + collapse a Z measurement; @return the outcome bit. */
    bool measureZ(QubitId q, SplitMix64 &rng);
};

} // namespace msq

#endif // MSQ_TESTS_STATEVECTOR_HH
