/**
 * @file
 * Tests for the state-vector simulator, and — more importantly — the
 * semantic validation it enables: the Toffoli/Fredkin/Swap expansions
 * are exact circuit identities.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "passes/decompose_toffoli.hh"
#include "statevector.hh"
#include "support/logging.hh"

namespace {

using namespace msq;

constexpr double tolerance = 1e-9;

SplitMix64
rngFor(uint64_t seed)
{
    return SplitMix64(seed);
}

TEST(StateVector, InitialState)
{
    StateVector sv(2);
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, tolerance);
    EXPECT_NEAR(std::abs(sv.amplitude(3)), 0.0, tolerance);
}

TEST(StateVector, RejectsSillySizes)
{
    EXPECT_THROW(StateVector(0), FatalError);
    EXPECT_THROW(StateVector(99), FatalError);
}

TEST(StateVector, HadamardMakesSuperposition)
{
    StateVector sv(1);
    auto rng = rngFor(1);
    sv.apply(Operation(GateKind::H, {0}), rng);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.5, tolerance);
    sv.apply(Operation(GateKind::H, {0}), rng);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.0, tolerance);
}

TEST(StateVector, BellState)
{
    StateVector sv(2);
    auto rng = rngFor(2);
    sv.apply(Operation(GateKind::H, {0}), rng);
    sv.apply(Operation(GateKind::CNOT, {0, 1}), rng);
    EXPECT_NEAR(std::abs(sv.amplitude(0b00)), 1 / std::sqrt(2.0),
                tolerance);
    EXPECT_NEAR(std::abs(sv.amplitude(0b11)), 1 / std::sqrt(2.0),
                tolerance);
    EXPECT_NEAR(std::abs(sv.amplitude(0b01)), 0.0, tolerance);
}

TEST(StateVector, TIsFourthRootOfZ)
{
    StateVector with_t(1);
    StateVector with_s(1);
    auto rng = rngFor(3);
    with_t.apply(Operation(GateKind::H, {0}), rng);
    with_s.apply(Operation(GateKind::H, {0}), rng);
    with_t.apply(Operation(GateKind::T, {0}), rng);
    with_t.apply(Operation(GateKind::T, {0}), rng);
    with_s.apply(Operation(GateKind::S, {0}), rng);
    EXPECT_TRUE(with_t.approxEqual(with_s, tolerance));
}

TEST(StateVector, RzMatchesTUpToPhase)
{
    // T = Rz(pi/4) up to global phase.
    StateVector a(1);
    StateVector b(1);
    auto rng = rngFor(4);
    a.apply(Operation(GateKind::H, {0}), rng);
    b.apply(Operation(GateKind::H, {0}), rng);
    a.apply(Operation(GateKind::T, {0}), rng);
    b.apply(Operation(GateKind::Rz, {0}, 3.14159265358979 / 4), rng);
    EXPECT_TRUE(a.approxEqual(b, 1e-8));
}

TEST(StateVector, MeasurementCollapses)
{
    StateVector sv(1);
    auto rng = rngFor(5);
    sv.apply(Operation(GateKind::H, {0}), rng);
    sv.apply(Operation(GateKind::MeasZ, {0}), rng);
    double p = sv.probabilityOfOne(0);
    EXPECT_TRUE(std::abs(p) < tolerance || std::abs(p - 1.0) < tolerance);
}

TEST(StateVector, PrepZResetsToZero)
{
    StateVector sv(1);
    auto rng = rngFor(6);
    sv.apply(Operation(GateKind::H, {0}), rng);
    sv.apply(Operation(GateKind::PrepZ, {0}), rng);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.0, tolerance);
}

// --- Circuit-identity validation of the decomposition pass ---

/** Prepare an arbitrary-ish 3-qubit state with a fixed gate prefix. */
void
scramble(StateVector &sv, SplitMix64 &rng)
{
    sv.apply(Operation(GateKind::H, {0}), rng);
    sv.apply(Operation(GateKind::T, {0}), rng);
    sv.apply(Operation(GateKind::H, {1}), rng);
    sv.apply(Operation(GateKind::CNOT, {0, 1}), rng);
    sv.apply(Operation(GateKind::Ry, {2}, 0.831), rng);
    sv.apply(Operation(GateKind::CNOT, {1, 2}), rng);
    sv.apply(Operation(GateKind::S, {2}), rng);
}

TEST(Decompositions, ToffoliExpansionIsExact)
{
    // Compare the native Toffoli against the paper Fig. 4 expansion on
    // a scrambled (entangled) 3-qubit state.
    StateVector native(3);
    StateVector expanded(3);
    auto rng1 = rngFor(7);
    auto rng2 = rngFor(7);
    scramble(native, rng1);
    scramble(expanded, rng2);

    native.apply(Operation(GateKind::Toffoli, {0, 1, 2}), rng1);
    std::vector<Operation> ops;
    DecomposeToffoliPass::expandToffoli(0, 1, 2, ops);
    for (const auto &op : ops)
        expanded.apply(op, rng2);

    EXPECT_TRUE(native.approxEqual(expanded, 1e-8));
}

TEST(Decompositions, SwapExpansionIsExact)
{
    StateVector native(3);
    StateVector expanded(3);
    auto rng1 = rngFor(8);
    auto rng2 = rngFor(8);
    scramble(native, rng1);
    scramble(expanded, rng2);

    native.apply(Operation(GateKind::Swap, {0, 2}), rng1);
    std::vector<Operation> ops;
    DecomposeToffoliPass::expandSwap(0, 2, ops);
    for (const auto &op : ops)
        expanded.apply(op, rng2);

    EXPECT_TRUE(native.approxEqual(expanded, 1e-8));
}

TEST(Decompositions, FredkinExpansionIsExact)
{
    StateVector native(3);
    StateVector expanded(3);
    auto rng1 = rngFor(9);
    auto rng2 = rngFor(9);
    scramble(native, rng1);
    scramble(expanded, rng2);

    native.apply(Operation(GateKind::Fredkin, {0, 1, 2}), rng1);
    std::vector<Operation> ops;
    DecomposeToffoliPass::expandFredkin(0, 1, 2, ops);
    for (const auto &op : ops)
        expanded.apply(op, rng2);

    EXPECT_TRUE(native.approxEqual(expanded, 1e-8));
}

} // namespace
