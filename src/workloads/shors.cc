/**
 * @file
 * Shor's factoring (paper §3.3): period finding over modular
 * exponentiation with a Quantum Fourier Transform readout [Shor '94],
 * in the Fourier-basis (Draper/Beauregard) style: each controlled
 * multiplication is a QFT, a fan of phase rotations by classically
 * computed constants, and an inverse QFT.
 *
 * This benchmark is the paper's rotation stress test (§5.4, Table 2,
 * Fig. 9): the phase-rotation fans are parallel across distinct qubits
 * *in principle*, but once each rotation is decomposed into a long serial
 * primitive sequence (kept as a blackbox module), every concurrent
 * rotation needs its own SIMD region — so Shor's keeps speeding up with
 * k long after the other benchmarks saturate.
 */

#include "workloads/workloads.hh"

#include <cmath>

#include "support/rng.hh"
#include "workloads/detail.hh"

namespace msq {
namespace workloads {

using namespace detail;

namespace {

/** Append a controlled-phase(theta) between ctl and tgt, decomposed into
 * primitives + rotations (standard 2-CNOT, 3-rotation identity). */
void
controlledPhase(Module &mod, QubitId ctl, QubitId tgt, double theta)
{
    mod.addGate(GateKind::Rz, {ctl}, theta / 2);
    mod.addGate(GateKind::CNOT, {ctl, tgt});
    mod.addGate(GateKind::Rz, {tgt}, -theta / 2);
    mod.addGate(GateKind::CNOT, {ctl, tgt});
    mod.addGate(GateKind::Rz, {tgt}, theta / 2);
}

} // anonymous namespace

Program
buildShors(unsigned n)
{
    if (n < 3)
        fatal("shors: n must be >= 3");
    Program prog;
    const unsigned ctl_bits = 2 * n;
    constexpr double pi = 3.14159265358979323846;

    SplitMix64 rng(hashString("shors") ^ n);
    // The (classical) modulus and base define the per-step multipliers
    // a^(2^i) mod N; only their bit patterns matter to the circuit.
    uint64_t modulus = (rng.next() | 1) & 0xffffffffULL;
    uint64_t multiplier = (rng.next() | 3);

    // qft(x[width]): full QFT with decomposed controlled phases.
    ModuleId qft_id = prog.addModule("qft");
    const unsigned qft_width = ctl_bits;
    {
        Module &mod = prog.module(qft_id);
        ctqg::Register x = addParamReg(mod, "x", qft_width);
        for (unsigned i = 0; i < qft_width; ++i) {
            mod.addGate(GateKind::H, {x[i]});
            for (unsigned j = i + 1; j < qft_width; ++j) {
                double theta = std::ldexp(pi, -static_cast<int>(j - i));
                controlledPhase(mod, x[j], x[i], theta);
            }
        }
    }

    // work_qft(work[n]): QFT on the work register (used inside cmult).
    ModuleId work_qft_id = prog.addModule("work_qft");
    {
        Module &mod = prog.module(work_qft_id);
        ctqg::Register wreg = addParamReg(mod, "w", n);
        for (unsigned i = 0; i < n; ++i) {
            mod.addGate(GateKind::H, {wreg[i]});
            for (unsigned j = i + 1; j < n; ++j) {
                double theta = std::ldexp(pi, -static_cast<int>(j - i));
                controlledPhase(mod, wreg[j], wreg[i], theta);
            }
        }
    }

    // cmult_<i>(ctl, work[n]): controlled multiply by a^(2^i) mod N.
    // In the Fourier basis the constant addition is a *parallel* fan of
    // rotations with step-specific angles (Table 2's scenario).
    std::vector<ModuleId> cmult_ids;
    uint64_t factor = multiplier;
    for (unsigned i = 0; i < ctl_bits; ++i) {
        ModuleId id = prog.addModule(csprintf("cmult_%u", i));
        cmult_ids.push_back(id);
        Module &mod = prog.module(id);
        QubitId ctl = mod.addParam("ctl");
        ctqg::Register wreg = addParamReg(mod, "w", n);

        mod.addCall(work_qft_id, wreg);
        // Controlled Fourier-basis constant add of c_i = a^(2^i) mod N:
        // one distinct-angle rotation per work qubit, bracketed by the
        // control coupling.
        for (unsigned b = 0; b < n; ++b) {
            double angle = 2.0 * pi *
                           static_cast<double>(factor % (b + 2)) /
                           static_cast<double>(uint64_t{1} << ((b % 20)
                                                               + 1));
            mod.addGate(GateKind::CNOT, {ctl, wreg[b]});
            mod.addGate(GateKind::Rz, {wreg[b]}, angle + 1e-9 * i);
            mod.addGate(GateKind::CNOT, {ctl, wreg[b]});
        }
        mod.addCall(work_qft_id, wreg); // structural inverse QFT
        // Classical update: factor = factor^2 mod modulus.
        factor = (factor * factor) % (modulus | 3);
    }

    ModuleId main_id = prog.addModule("main");
    {
        Module &mod = prog.module(main_id);
        ctqg::Register x = mod.addRegister("x", ctl_bits);
        ctqg::Register work = mod.addRegister("work", n);
        prepAll(mod, x);
        prepAll(mod, work);
        mod.addGate(GateKind::X, {work[0]}); // |1> in the work register
        hadamardAll(mod, x);
        for (unsigned i = 0; i < ctl_bits; ++i) {
            std::vector<QubitId> args{x[i]};
            args.insert(args.end(), work.begin(), work.end());
            mod.addCall(cmult_ids[i], args);
        }
        mod.addCall(qft_id, x);
        measureAll(mod, x);
    }

    prog.setEntry(main_id);
    prog.validate();
    return prog;
}

} // namespace workloads
} // namespace msq
