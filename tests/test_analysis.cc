/**
 * @file
 * Tests for the analysis library: hierarchical resource estimation
 * (gate totals, critical paths and minimum-qubit Table 1 estimation,
 * all from one ResourceEstimator) and module histograms (Fig. 5
 * bucketing).
 */

#include <gtest/gtest.h>

#include <limits>

#include "analysis/bounds.hh"
#include "analysis/resource_estimator.hh"
#include "support/saturate.hh"

namespace {

using namespace msq;

Program
hierarchy()
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf"); // 4 gates
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        QubitId anc = mod.addLocal("anc");
        mod.addGate(GateKind::H, {q});
        mod.addGate(GateKind::CNOT, {q, anc});
        mod.addGate(GateKind::T, {anc});
        mod.addGate(GateKind::CNOT, {q, anc});
    }
    ModuleId mid = prog.addModule("mid"); // 2 + 5*4 = 22 gates
    {
        Module &mod = prog.module(mid);
        QubitId q = mod.addParam("q");
        QubitId r = mod.addLocal("r");
        mod.addGate(GateKind::H, {q});
        mod.addCall(leaf, {q}, 5);
        mod.addGate(GateKind::CNOT, {q, r});
    }
    ModuleId top = prog.addModule("top"); // 3 * 22 = 66 gates
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(mid, {q}, 3);
    }
    prog.setEntry(top);
    return prog;
}

TEST(ResourceEstimator, HierarchicalTotals)
{
    Program prog = hierarchy();
    ResourceEstimator res(prog);
    EXPECT_EQ(res.totalGates(prog.findModule("leaf")), 4u);
    EXPECT_EQ(res.totalGates(prog.findModule("mid")), 22u);
    EXPECT_EQ(res.totalGates(prog.findModule("top")), 66u);
    EXPECT_EQ(res.programGates(), 66u);
}

TEST(ResourceEstimator, SaturatesInsteadOfOverflowing)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    prog.module(leaf).addParam("q");
    prog.module(leaf).addGate(GateKind::T, {0});
    ModuleId cur = leaf;
    // 2^128 < 10^39: chain enough x10^6 repeats to overflow.
    for (int level = 0; level < 7; ++level) {
        ModuleId next = prog.addModule("l" + std::to_string(level));
        prog.module(next).addParam("q");
        prog.module(next).addCall(cur, {0}, 1'000'000);
        cur = next;
    }
    prog.setEntry(cur);
    ResourceEstimator res(prog);
    EXPECT_EQ(res.programGates(), Count::max());
    EXPECT_TRUE(res.programGates().saturated());
}

TEST(Saturate, AddAndMul)
{
    EXPECT_EQ(satAdd(2, 3), 5u);
    EXPECT_EQ(satAdd(~uint64_t{0}, 1), ~uint64_t{0});
    EXPECT_EQ(satMul(3, 4), 12u);
    EXPECT_EQ(satMul(uint64_t{1} << 40, uint64_t{1} << 40), ~uint64_t{0});
    EXPECT_EQ(satMul(0, ~uint64_t{0}), 0u);
}

TEST(ModuleHistogram, BucketsMatchFig5Ranges)
{
    EXPECT_EQ(ModuleHistogram::bucketLabel(0), "0 - 1k");
    EXPECT_EQ(ModuleHistogram::bucketLabel(1), "1k - 5k");
    EXPECT_EQ(ModuleHistogram::bucketLabel(7), "1M - 2M");
    EXPECT_EQ(ModuleHistogram::bucketLabel(10), ">20M");
}

TEST(ModuleHistogram, CountsModules)
{
    Program prog = hierarchy();
    ResourceEstimator res(prog);
    ModuleHistogram hist(res);
    EXPECT_EQ(hist.totalModules(), 3u);
    EXPECT_EQ(hist.count(0), 3u); // all under 1k
}

TEST(CriticalPath, SerialChain)
{
    Program prog = hierarchy();
    ResourceEstimator cp(prog);
    // leaf cp: H -> CNOT -> T -> CNOT = 4 (all share qubits).
    EXPECT_EQ(cp.criticalPath(prog.findModule("leaf")), 4u);
    // mid: H -> 5*leaf -> CNOT, all serialized through q = 1+20+1.
    EXPECT_EQ(cp.criticalPath(prog.findModule("mid")), 22u);
    EXPECT_EQ(cp.programCriticalPath(), 66u);
}

TEST(CriticalPath, ParallelBranchesShorterThanTotal)
{
    Program prog;
    ModuleId id = prog.addModule("m");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 4);
    for (QubitId q : reg) {
        mod.addGate(GateKind::H, {q});
        mod.addGate(GateKind::T, {q});
    }
    prog.setEntry(id);
    ResourceEstimator res(prog);
    EXPECT_EQ(res.programCriticalPath(), 2u); // 4 chains of length 2
    EXPECT_EQ(res.programGates(), 8u);
}

/** main: X q; then leaf(q) repeated 2^63 times, where leaf is H; T. */
Program
saturatingChain()
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    prog.module(leaf).addParam("q");
    prog.module(leaf).addGate(GateKind::H, {0});
    prog.module(leaf).addGate(GateKind::T, {0});
    ModuleId top = prog.addModule("main");
    prog.module(top).addLocal("q");
    prog.module(top).addGate(GateKind::X, {0});
    prog.module(top).addCall(leaf, {0}, uint64_t{1} << 63);
    prog.setEntry(top);
    return prog;
}

TEST(CriticalPath, SaturatesInsteadOfWrapping)
{
    // 2 * 2^63 clips the call's weight at 2^64-1, and the X ahead of
    // it must not wrap the path around to a small length.
    Program prog = saturatingChain();
    const uint64_t max = std::numeric_limits<uint64_t>::max();
    EXPECT_EQ(ResourceEstimator(prog).programCriticalPath(), max);

    MakespanBoundAnalysis bounds(prog, MultiSimdArch(2, unbounded, 0),
                                 CommMode::Global);
    EXPECT_EQ(bounds.bounds(prog.entry()).criticalPath, max);
    EXPECT_EQ(bounds.programLowerBound(), max);
    EXPECT_TRUE(bounds.saturated());
}

TEST(QubitEstimator, CountsLocalsAndParams)
{
    Program prog = hierarchy();
    ResourceEstimator est(prog);
    EXPECT_EQ(est.qubitsNeeded(prog.findModule("leaf")), 2u);
    // mid: 2 own qubits + (leaf demand 2 - 1 param) = 3.
    EXPECT_EQ(est.qubitsNeeded(prog.findModule("mid")), 3u);
    // top: 1 own + (mid 3 - 1 param) = 3.
    EXPECT_EQ(est.programQubits(), 3u);
}

TEST(QubitEstimator, SiblingCallsReuseAncilla)
{
    Program prog;
    ModuleId big = prog.addModule("big");
    {
        Module &mod = prog.module(big);
        QubitId q = mod.addParam("q");
        auto anc = mod.addRegister("anc", 10);
        mod.addGate(GateKind::CNOT, {q, anc[0]});
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(big, {q});
        mod.addCall(big, {q});
        mod.addCall(big, {q});
    }
    prog.setEntry(top);
    ResourceEstimator est(prog);
    // Sequential execution reuses the 10 ancilla across the 3 calls.
    EXPECT_EQ(est.programQubits(), 1u + 10u);
}

} // namespace
