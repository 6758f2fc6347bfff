/**
 * @file
 * Tests for the interprocedural qubit analyses (qubit liveness,
 * measurement dominance, entanglement-group tracking) and the
 * cycle-tolerant Program::bottomUpOrder they walk modules in.
 */

#include <gtest/gtest.h>

#include "analysis/qubit_analyses.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "verify/linter.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

// --- Program::bottomUpOrder, cycle-tolerant mode ---

TEST(BottomUpOrder, CalleesComeFirstEntryLast)
{
    Program prog;
    ModuleId inner = prog.addModule("inner");
    ModuleId outer = prog.addModule("outer");
    ModuleId main = prog.addModule("main");
    ModuleId unreachable = prog.addModule("unreachable");
    prog.module(inner).addParam("p");
    prog.module(inner).addGate(GateKind::H, {0});
    prog.module(outer).addParam("p");
    prog.module(outer).addCall(inner, {0});
    prog.module(main).addLocal("q");
    prog.module(main).addCall(outer, {0});
    prog.module(unreachable).addLocal("q");
    prog.setEntry(main);

    bool cyclic = true;
    std::vector<ModuleId> order = prog.bottomUpOrder(&cyclic);
    EXPECT_FALSE(cyclic);
    ASSERT_EQ(order.size(), 3u); // unreachable omitted
    EXPECT_EQ(order.back(), main);
    // inner strictly before outer.
    size_t inner_pos = 0, outer_pos = 0;
    for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] == inner)
            inner_pos = i;
        if (order[i] == outer)
            outer_pos = i;
    }
    EXPECT_LT(inner_pos, outer_pos);
}

TEST(BottomUpOrder, DetectsRecursionWithoutPanicking)
{
    Program prog;
    ModuleId a = prog.addModule("a");
    ModuleId b = prog.addModule("b");
    prog.module(a).addParam("p");
    prog.module(b).addParam("p");
    // Mutual recursion, built through the unchecked path.
    prog.module(a).addRawOperation(Operation::makeCall(b, {0}));
    prog.module(b).addRawOperation(Operation::makeCall(a, {0}));
    prog.setEntry(a);

    bool cyclic = false;
    std::vector<ModuleId> order = prog.bottomUpOrder(&cyclic);
    EXPECT_TRUE(cyclic);
    EXPECT_TRUE(order.empty()); // both modules sit on the cycle

    LivenessAnalysis liveness = LivenessAnalysis::analyze(prog);
    EXPECT_FALSE(liveness.valid());
    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    EXPECT_FALSE(dom.valid());
}

TEST(BottomUpOrder, LeavesOutOnlyModulesThatReachACycle)
{
    // main calls a leaf, a module with an out-of-range callee, and into
    // the cycle a <-> b: only the leaf and d drain (Kahn's order set).
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    ModuleId a = prog.addModule("a");
    ModuleId b = prog.addModule("b");
    ModuleId d = prog.addModule("d");
    ModuleId main = prog.addModule("main");
    for (ModuleId m : {leaf, a, b, d})
        prog.module(m).addParam("p");
    prog.module(leaf).addGate(GateKind::H, {0});
    prog.module(a).addRawOperation(Operation::makeCall(b, {0}));
    prog.module(b).addRawOperation(Operation::makeCall(a, {0}));
    prog.module(d).addRawOperation(Operation::makeCall(999, {0}));
    prog.module(d).addCall(leaf, {0});
    prog.module(main).addLocal("q");
    prog.module(main).addCall(leaf, {0});
    prog.module(main).addCall(a, {0});
    prog.module(main).addCall(d, {0});
    prog.setEntry(main);

    bool cyclic = false;
    std::vector<ModuleId> order = prog.bottomUpOrder(&cyclic);
    EXPECT_TRUE(cyclic);
    EXPECT_EQ(order, (std::vector<ModuleId>{leaf, d}));
}

TEST(BottomUpOrder, EmptyWithoutEntry)
{
    Program prog;
    prog.addModule("m");
    bool cyclic = true;
    EXPECT_TRUE(prog.bottomUpOrder(&cyclic).empty());
    EXPECT_FALSE(cyclic);
}

// --- liveness ---

TEST(Liveness, LiveRangesAndPrepKills)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    mod.addGate(GateKind::PrepZ, {a});   // op0
    mod.addGate(GateKind::H, {a});       // op1
    mod.addGate(GateKind::CNOT, {a, b}); // op2
    mod.addGate(GateKind::MeasZ, {b});   // op3
    prog.setEntry(id);

    LivenessAnalysis liveness = LivenessAnalysis::analyze(prog);
    ASSERT_TRUE(liveness.valid());
    const ModuleLiveness &ml = liveness.module(id);
    EXPECT_TRUE(ml.ranges[a].used);
    EXPECT_EQ(ml.ranges[a].firstUse, 0u);
    EXPECT_EQ(ml.ranges[a].lastUse, 2u);
    EXPECT_EQ(ml.ranges[b].lastUse, 3u);
}

TEST(Liveness, CallArgumentDeadWhenCalleeIgnoresParam)
{
    Program prog;
    ModuleId callee = prog.addModule("callee");
    Module &cal = prog.module(callee);
    QubitId used = cal.addParam("used");
    QubitId ignored = cal.addParam("ignored");
    cal.addGate(GateKind::H, {used});

    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    QubitId x = m.addLocal("x");
    QubitId y = m.addLocal("y");
    m.addCall(callee, {x, y});
    prog.setEntry(main);

    LivenessAnalysis liveness = LivenessAnalysis::analyze(prog);
    ASSERT_TRUE(liveness.valid());
    EXPECT_TRUE(liveness.module(callee).paramUsed[used]);
    EXPECT_FALSE(liveness.module(callee).paramUsed[ignored]);

    const ModuleLiveness &ml = liveness.module(main);
    EXPECT_TRUE(ml.ranges[x].used);      // reaches a real gate
    EXPECT_FALSE(ml.ranges[y].used);     // threaded but never touched
    EXPECT_TRUE(ml.locallyReferenced[y]); // still appears at the call
}

TEST(Liveness, UnusedArgumentThreadsThroughCallChain)
{
    // main -> outer -> inner; inner ignores its second parameter, so
    // the deadness propagates up two call levels.
    Program prog;
    ModuleId inner = prog.addModule("inner");
    prog.module(inner).addParam("p");
    prog.module(inner).addParam("dead");
    prog.module(inner).addGate(GateKind::T, {0});
    ModuleId outer = prog.addModule("outer");
    prog.module(outer).addParam("p");
    prog.module(outer).addParam("dead");
    prog.module(outer).addCall(inner, {0, 1});
    ModuleId main = prog.addModule("main");
    prog.module(main).addLocal("q");
    prog.module(main).addLocal("r");
    prog.module(main).addCall(outer, {0, 1});
    prog.setEntry(main);

    LivenessAnalysis liveness = LivenessAnalysis::analyze(prog);
    ASSERT_TRUE(liveness.valid());
    EXPECT_FALSE(liveness.module(outer).paramUsed[1]);
    EXPECT_FALSE(liveness.module(main).ranges[1].used);
    EXPECT_TRUE(liveness.module(main).ranges[0].used);
}

// --- measurement dominance ---

TEST(MeasurementDominance, CleanProgramHasNoViolations)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::PrepZ, {q});
    mod.addGate(GateKind::H, {q});
    mod.addGate(GateKind::MeasZ, {q});
    mod.addGate(GateKind::PrepZ, {q}); // re-prepare
    mod.addGate(GateKind::H, {q});     // fine again
    prog.setEntry(id);

    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    ASSERT_TRUE(dom.valid());
    EXPECT_TRUE(dom.clean());
}

TEST(MeasurementDominance, CalleeMeasurementReachesCallerUse)
{
    // The callee leaves its parameter measured; the caller then gates
    // it. Verifier V009 cannot see this (it resets state at calls).
    Program prog;
    ModuleId callee = prog.addModule("measure_it");
    Module &cal = prog.module(callee);
    cal.addParam("p");
    cal.addGate(GateKind::MeasZ, {0});

    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    QubitId q = m.addLocal("q");
    m.addGate(GateKind::PrepZ, {q});
    m.addCall(callee, {q}); // op1
    m.addGate(GateKind::H, {q}); // op2: use of measured qubit
    prog.setEntry(main);

    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    ASSERT_TRUE(dom.valid());
    ASSERT_EQ(dom.violations().size(), 1u);
    const MeasurementViolation &v = dom.violations()[0];
    EXPECT_EQ(v.module, main);
    EXPECT_EQ(v.opIndex, 2u);
    EXPECT_EQ(v.qubit, q);
    EXPECT_TRUE(v.interprocedural);

    EXPECT_EQ(dom.summary(callee).end[0],
              MeasurementDominance::EndState::Measured);
}

TEST(MeasurementDominance, MeasuredArgumentIntoSensitiveCallee)
{
    // The caller measures, then hands the qubit to a callee that gates
    // it before re-preparing: flagged at the call site.
    Program prog;
    ModuleId callee = prog.addModule("uses_it");
    Module &cal = prog.module(callee);
    cal.addParam("p");
    cal.addGate(GateKind::H, {0});

    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    QubitId q = m.addLocal("q");
    m.addGate(GateKind::MeasZ, {q}); // op0
    m.addCall(callee, {q});          // op1: violation here
    prog.setEntry(main);

    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    ASSERT_TRUE(dom.valid());
    ASSERT_EQ(dom.violations().size(), 1u);
    EXPECT_EQ(dom.violations()[0].opIndex, 1u);
    EXPECT_TRUE(dom.violations()[0].interprocedural);
    EXPECT_TRUE(dom.summary(callee).useBeforePrep[0]);
}

TEST(MeasurementDominance, PreparingCalleeIsCleanAtCallSite)
{
    Program prog;
    ModuleId callee = prog.addModule("preps_it");
    Module &cal = prog.module(callee);
    cal.addParam("p");
    cal.addGate(GateKind::PrepZ, {0});
    cal.addGate(GateKind::H, {0});

    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    QubitId q = m.addLocal("q");
    m.addGate(GateKind::MeasZ, {q});
    m.addCall(callee, {q});      // callee preps first: fine
    m.addGate(GateKind::H, {q}); // callee left it prepared: fine
    prog.setEntry(main);

    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    ASSERT_TRUE(dom.valid());
    EXPECT_TRUE(dom.clean()) << "violations: " << dom.violations().size();
    EXPECT_FALSE(dom.summary(callee).useBeforePrep[0]);
    EXPECT_EQ(dom.summary(callee).end[0],
              MeasurementDominance::EndState::Prepared);
}

TEST(MeasurementDominance, RepeatedCallMeasuringAndUsingIsFlagged)
{
    // f measures its parameter after using it; "repeat 2 f(q)" makes
    // iteration 2 consume what iteration 1 left measured.
    Program prog;
    ModuleId f = prog.addModule("f");
    Module &fm = prog.module(f);
    fm.addParam("p");
    fm.addGate(GateKind::H, {0});
    fm.addGate(GateKind::MeasZ, {0});

    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    m.addLocal("q");
    m.addCall(f, {0}, 2);
    prog.setEntry(main);

    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    ASSERT_TRUE(dom.valid());
    ASSERT_EQ(dom.violations().size(), 1u);
    EXPECT_TRUE(dom.violations()[0].interprocedural);
}

/**
 * A callee measures q while gating s, so the measurement reaches the
 * caller along s's chain too. q is re-prepared before its next use, so
 * that use (by the gate or call @p use_in_call, on s and q) is clean.
 */
Program
reprepAfterCalleeMeasure(bool use_in_call)
{
    Program prog;
    ModuleId measure_it = prog.addModule("measure_it");
    Module &mi = prog.module(measure_it);
    mi.addParam("p");
    mi.addParam("s");
    mi.addGate(GateKind::MeasZ, {0});
    mi.addGate(GateKind::H, {1});

    ModuleId use2 = prog.addModule("use2");
    Module &u2 = prog.module(use2);
    u2.addParam("a");
    u2.addParam("b");
    u2.addGate(GateKind::CNOT, {0, 1});

    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    QubitId q = m.addLocal("q");
    QubitId s = m.addLocal("s");
    m.addGate(GateKind::PrepZ, {q});
    m.addGate(GateKind::PrepZ, {s});
    m.addCall(measure_it, {q, s});
    m.addGate(GateKind::PrepZ, {q}); // q is clean again
    m.addGate(GateKind::H, {s});
    if (use_in_call)
        m.addCall(use2, {s, q});
    else
        m.addGate(GateKind::CNOT, {s, q});
    m.addGate(GateKind::MeasZ, {q});
    m.addGate(GateKind::MeasZ, {s});
    prog.setEntry(main);
    return prog;
}

TEST(MeasurementDominance, ReprepClearsMeasurementReachingGateViaOtherQubit)
{
    Program prog = reprepAfterCalleeMeasure(false);
    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    ASSERT_TRUE(dom.valid());
    EXPECT_TRUE(dom.clean()) << "violations: " << dom.violations().size();
}

TEST(MeasurementDominance, ReprepClearsMeasurementReachingCallViaOtherQubit)
{
    Program prog = reprepAfterCalleeMeasure(true);
    MeasurementDominance dom = MeasurementDominance::analyze(prog);
    ASSERT_TRUE(dom.valid());
    EXPECT_TRUE(dom.clean()) << "violations: " << dom.violations().size();

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    for (const Diagnostic &d : diags.diagnostics())
        EXPECT_NE(d.code, DiagCode::InterprocUseAfterMeasure) << d.format();
}

// --- entanglement groups ---

TEST(EntanglementGroups, TwoQubitGatesUniteOperands)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 4);
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::CNOT, {reg[2], reg[3]});
    prog.setEntry(id);

    EntanglementGroups groups = EntanglementGroups::analyze(prog);
    ASSERT_TRUE(groups.valid());
    // {0,1} and {2,3}: uniting nothing gives 0, everything 1.
    EXPECT_EQ(groups.numEntangledGroups(id), 2u);
}

TEST(EntanglementGroups, CalleeConnectsArgumentsThroughItsLocals)
{
    // The callee entangles its two parameters only indirectly, via a
    // local ancilla; the caller's arguments must still end up united.
    Program prog;
    ModuleId callee = prog.addModule("bridge");
    Module &cal = prog.module(callee);
    QubitId p0 = cal.addParam("p0");
    QubitId p1 = cal.addParam("p1");
    QubitId anc = cal.addLocal("anc");
    cal.addGate(GateKind::CNOT, {p0, anc});
    cal.addGate(GateKind::CNOT, {anc, p1});

    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    auto reg = m.addRegister("q", 4);
    m.addCall(callee, {reg[0], reg[2]});
    m.addGate(GateKind::CNOT, {reg[1], reg[3]});
    prog.setEntry(main);

    EntanglementGroups groups = EntanglementGroups::analyze(prog);
    ASSERT_TRUE(groups.valid());
    // {0,2} through the bridge and {1,3} directly: a call that united
    // nothing, or all four, would leave one group.
    EXPECT_EQ(groups.numEntangledGroups(main), 2u);
}

TEST(EntanglementGroups, SingleQubitGatesEntangleNothing)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 3);
    for (QubitId q : reg)
        mod.addGate(GateKind::H, {q});
    prog.setEntry(id);

    EntanglementGroups groups = EntanglementGroups::analyze(prog);
    ASSERT_TRUE(groups.valid());
    EXPECT_EQ(groups.numEntangledGroups(id), 0u);
}

// --- integration: real workloads ---

TEST(DataflowIntegration, ScaledWorkloadsAnalyzeCleanly)
{
    for (const auto &params : workloads::scaledParams()) {
        Program prog = params.build();
        LivenessAnalysis liveness = LivenessAnalysis::analyze(prog);
        EXPECT_TRUE(liveness.valid()) << params.name;
        MeasurementDominance dom = MeasurementDominance::analyze(prog);
        EXPECT_TRUE(dom.valid()) << params.name;
        EXPECT_TRUE(dom.clean())
            << params.name << ": " << dom.violations().size()
            << " dominance violation(s)";
        EntanglementGroups groups = EntanglementGroups::analyze(prog);
        EXPECT_TRUE(groups.valid()) << params.name;
    }
}

} // namespace
