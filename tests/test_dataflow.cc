/**
 * @file
 * Tests for the dataflow framework (QubitSet, the forward/backward
 * engine, the cycle-tolerant Program::bottomUpOrder) and its
 * interprocedural client
 * analyses: qubit liveness, measurement dominance, and
 * entanglement-group tracking.
 */

#include <gtest/gtest.h>

#include "analysis/dataflow.hh"
#include "analysis/qubit_analyses.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "ir/dag.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

// --- QubitSet ---

TEST(QubitSet, BasicSetOperations)
{
    QubitSet set(70); // spans two words
    EXPECT_EQ(set.size(), 70u);
    EXPECT_TRUE(set.empty());
    set.set(0);
    set.set(69);
    EXPECT_TRUE(set.test(0));
    EXPECT_TRUE(set.test(69));
    EXPECT_FALSE(set.test(1));
    EXPECT_EQ(set.count(), 2u);
    set.reset(0);
    EXPECT_FALSE(set.test(0));
    EXPECT_EQ(set.count(), 1u);

    // Out-of-range accesses are ignored, not UB.
    set.set(100);
    EXPECT_FALSE(set.test(100));
    EXPECT_EQ(set.count(), 1u);
}

TEST(QubitSet, UniteAndIntersectReportChanges)
{
    QubitSet a(10), b(10);
    a.set(1);
    b.set(2);
    EXPECT_TRUE(a.uniteWith(b));
    EXPECT_FALSE(a.uniteWith(b)); // already a superset
    EXPECT_TRUE(a.test(1));
    EXPECT_TRUE(a.test(2));

    QubitSet c(10);
    c.set(2);
    EXPECT_TRUE(a.intersectWith(c));
    EXPECT_FALSE(a.test(1));
    EXPECT_TRUE(a.test(2));
    EXPECT_FALSE(a.intersectWith(c));
    EXPECT_EQ(a, c);
}

// --- the engine ---

/** Forward may-touched: every operand joins the set. */
class TouchedProblem : public DataflowProblem
{
  public:
    DataflowDirection direction() const override
    {
        return DataflowDirection::Forward;
    }

    void
    transfer(const Module &mod, uint32_t op_index,
             QubitSet &state) const override
    {
        for (QubitId q : mod.op(op_index).operands)
            state.set(q);
    }
};

TEST(DataflowEngine, ForwardStatesFollowDependences)
{
    Module mod("m");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    QubitId c = mod.addLocal("c");
    mod.addGate(GateKind::H, {a});       // op0
    mod.addGate(GateKind::H, {b});       // op1 (parallel to op0)
    mod.addGate(GateKind::CNOT, {a, b}); // op2 joins both
    mod.addGate(GateKind::H, {c});       // op3 independent

    DepDag dag = DepDag::build(mod);
    DataflowResult result = solveDataflow(mod, dag, TouchedProblem());

    // op2's in-state is the union of both parallel branches.
    EXPECT_TRUE(result.before[2].test(a));
    EXPECT_TRUE(result.before[2].test(b));
    EXPECT_FALSE(result.before[2].test(c));
    EXPECT_TRUE(result.after[2].test(a));
    // op3 is a root: empty boundary in-state.
    EXPECT_TRUE(result.before[3].empty());
    EXPECT_TRUE(result.after[3].test(c));
}

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
    EXPECT_TRUE(liveness.cyclic());
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

    // Before op0 nothing is live: the prep kills a's incoming value.
    EXPECT_FALSE(ml.liveIn[0].test(a));
    // Between prep and CNOT, a is live.
    EXPECT_TRUE(ml.liveIn[1].test(a));
    EXPECT_TRUE(ml.liveIn[2].test(a));
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
    // Only the used argument is live into the call.
    EXPECT_TRUE(ml.liveIn[0].test(x));
    EXPECT_FALSE(ml.liveIn[0].test(y));
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
