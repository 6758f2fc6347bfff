/**
 * @file
 * Tests for the fine-grained schedulers (sequential, RCP, LPFS) and the
 * schedule validator, including the paper's Fig. 4 example.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "passes/decompose_toffoli.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "sched/validator.hh"
#include "support/logging.hh"

namespace {

using namespace msq;

Module
parallelH(unsigned n)
{
    Module mod("h");
    auto reg = mod.addRegister("q", n);
    for (QubitId q : reg)
        mod.addGate(GateKind::H, {q});
    return mod;
}

/** Two dependent Toffolis sharing input a, decomposed — paper Fig. 4. */
Module
fig4Module()
{
    Module mod("fig4");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    QubitId c = mod.addLocal("c");
    QubitId d = mod.addLocal("d");
    QubitId e = mod.addLocal("e");
    std::vector<Operation> ops;
    DecomposeToffoliPass::expandToffoli(a, b, c, ops);
    DecomposeToffoliPass::expandToffoli(a, d, e, ops);
    for (auto &op : ops)
        mod.addOperation(std::move(op));
    return mod;
}

TEST(Sequential, OneOpPerStep)
{
    Module mod = parallelH(5);
    SequentialScheduler sched;
    LeafSchedule out = sched.schedule(mod, MultiSimdArch(4));
    EXPECT_EQ(out.computeTimesteps(), 5u);
    for (TimestepView step : out.steps())
        EXPECT_EQ(step.activeRegions(), 1u);
    validateLeafSchedule(out, MultiSimdArch(4));
}

TEST(Sequential, RejectsNonLeaf)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    prog.module(leaf).addParam("q");
    ModuleId top = prog.addModule("top");
    prog.module(top).addLocal("q");
    prog.module(top).addCall(leaf, {0});
    SequentialScheduler sched;
    EXPECT_THROW(sched.schedule(prog.module(top), MultiSimdArch(4)),
                 PanicError);
}

TEST(Sequential, RejectsCompositeGates)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 3);
    mod.addGate(GateKind::Toffoli, {reg[0], reg[1], reg[2]});
    SequentialScheduler sched;
    EXPECT_THROW(sched.schedule(mod, MultiSimdArch(4)), PanicError);
}

template <typename Scheduler>
class FineSchedulerTest : public ::testing::Test
{
  public:
    Scheduler scheduler;
};

using FineSchedulers = ::testing::Types<RcpScheduler, LpfsScheduler>;
TYPED_TEST_SUITE(FineSchedulerTest, FineSchedulers);

TYPED_TEST(FineSchedulerTest, DataParallelismInOneStep)
{
    // n independent H gates: with d = inf they fit one timestep.
    Module mod = parallelH(10);
    LeafSchedule out = this->scheduler.schedule(mod, MultiSimdArch(4));
    EXPECT_EQ(out.computeTimesteps(), 1u);
    validateLeafSchedule(out, MultiSimdArch(4));
}

TYPED_TEST(FineSchedulerTest, DLimitSplitsGroups)
{
    // 10 H gates, d = 3, k = 1: ceil(10/3) = 4 timesteps.
    Module mod = parallelH(10);
    MultiSimdArch arch(1, 3);
    LeafSchedule out = this->scheduler.schedule(mod, arch);
    EXPECT_EQ(out.computeTimesteps(), 4u);
    validateLeafSchedule(out, arch);
}

TYPED_TEST(FineSchedulerTest, SerialChainTakesChainLength)
{
    Module mod("chain");
    QubitId q = mod.addLocal("q");
    for (int i = 0; i < 20; ++i)
        mod.addGate(i % 2 ? GateKind::T : GateKind::H, {q});
    LeafSchedule out = this->scheduler.schedule(mod, MultiSimdArch(4));
    EXPECT_EQ(out.computeTimesteps(), 20u);
    validateLeafSchedule(out, MultiSimdArch(4));
}

TYPED_TEST(FineSchedulerTest, MixedTypesNeedTwoRegionsOrSteps)
{
    // 5 H and 5 T on distinct qubits: k=2 -> 1 step; k=1 -> 2 steps.
    Module mod("mixed");
    auto reg = mod.addRegister("q", 10);
    for (int i = 0; i < 5; ++i)
        mod.addGate(GateKind::H, {reg[i]});
    for (int i = 5; i < 10; ++i)
        mod.addGate(GateKind::T, {reg[i]});
    LeafSchedule two = this->scheduler.schedule(mod, MultiSimdArch(2));
    EXPECT_EQ(two.computeTimesteps(), 1u);
    LeafSchedule one = this->scheduler.schedule(mod, MultiSimdArch(1));
    EXPECT_EQ(one.computeTimesteps(), 2u);
    validateLeafSchedule(two, MultiSimdArch(2));
    validateLeafSchedule(one, MultiSimdArch(1));
}

TYPED_TEST(FineSchedulerTest, EmptyModule)
{
    Module mod("empty");
    LeafSchedule out = this->scheduler.schedule(mod, MultiSimdArch(2));
    EXPECT_EQ(out.computeTimesteps(), 0u);
}

TYPED_TEST(FineSchedulerTest, RespectsDependences)
{
    // Diamond + tail across 3 qubits, k = 2.
    Module mod("m");
    auto reg = mod.addRegister("q", 3);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::H, {reg[1]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::CNOT, {reg[1], reg[2]});
    mod.addGate(GateKind::T, {reg[2]});
    MultiSimdArch arch(2);
    LeafSchedule out = this->scheduler.schedule(mod, arch);
    validateLeafSchedule(out, arch);
    EXPECT_GE(out.computeTimesteps(), 4u); // critical path
}

TYPED_TEST(FineSchedulerTest, Fig4FusedBeatsModular)
{
    // Paper Fig. 4: the fused (flattened) pair of dependent Toffolis
    // schedules in ~21 cycles at k=2 versus 24 for the modular
    // (blackboxed) version.
    Module fused = fig4Module();
    MultiSimdArch arch(2);
    LeafSchedule out = this->scheduler.schedule(fused, arch);
    validateLeafSchedule(out, arch);

    // Single decomposed Toffoli at k=2: 12 cycles (Fig. 4 left).
    Module single("single");
    QubitId a = single.addLocal("a");
    QubitId b = single.addLocal("b");
    QubitId c = single.addLocal("c");
    std::vector<Operation> ops;
    DecomposeToffoliPass::expandToffoli(a, b, c, ops);
    for (auto &op : ops)
        single.addOperation(std::move(op));
    LeafSchedule single_out = this->scheduler.schedule(single, arch);
    validateLeafSchedule(single_out, arch);
    EXPECT_EQ(single_out.computeTimesteps(), 12u);

    uint64_t modular = 2 * single_out.computeTimesteps();
    EXPECT_LT(out.computeTimesteps(), modular);
    EXPECT_GE(out.computeTimesteps(), 21u); // DAG critical path bound
}

TEST(Lpfs, ZeroLFatal)
{
    Module mod = parallelH(2);
    LpfsScheduler::Options options;
    options.l = 0;
    LpfsScheduler sched(options);
    EXPECT_THROW(sched.schedule(mod, MultiSimdArch(2)), FatalError);
}

TEST(Lpfs, LClampedToK)
{
    // The width sweep schedules leaves on narrower sub-machines; l is
    // clamped rather than rejected.
    Module mod = parallelH(4);
    LpfsScheduler::Options options;
    options.l = 3;
    LpfsScheduler sched(options);
    MultiSimdArch arch(2);
    LeafSchedule out = sched.schedule(mod, arch);
    validateLeafSchedule(out, arch);
    EXPECT_EQ(out.scheduledOps(), mod.numOps());
}

TEST(Lpfs, OptionsOffStillValid)
{
    Module mod = fig4Module();
    LpfsScheduler::Options options;
    options.simd = false;
    options.refill = false;
    LpfsScheduler sched(options);
    MultiSimdArch arch(2);
    LeafSchedule out = sched.schedule(mod, arch);
    validateLeafSchedule(out, arch);
    EXPECT_EQ(out.scheduledOps(), mod.numOps());
}

TEST(Lpfs, MultiplePathRegions)
{
    Module mod = fig4Module();
    LpfsScheduler::Options options;
    options.l = 2;
    LpfsScheduler sched(options);
    MultiSimdArch arch(3);
    LeafSchedule out = sched.schedule(mod, arch);
    validateLeafSchedule(out, arch);
    EXPECT_EQ(out.scheduledOps(), mod.numOps());
}

TEST(Lpfs, FiniteDWideOpDoesNotStarveSmallerOps)
{
    // Regression: fillWithType used to stop at the first ready op whose
    // qubit count exceeded the remaining d-budget, so one wide op at
    // the front of the ready list starved smaller same-kind ops queued
    // behind it. Same-kind ops of different widths only arise through
    // raw (pass-synthesized) operations, so build the module that way:
    //   op0: X q0        (taken as the path op; budget 3 -> 2)
    //   op1: X q1 q2 q3  (needs 3 > 2: must be skipped, not a stop)
    //   op2: X q4        (fits; must ride along in the same slot)
    Module mod("wide");
    mod.addRegister("q", 5);
    mod.addRawOperation(Operation(GateKind::X, {0}));
    mod.addRawOperation(Operation(GateKind::X, {1, 2, 3}));
    mod.addRawOperation(Operation(GateKind::X, {4}));

    LpfsScheduler sched;
    MultiSimdArch arch(1, 3);
    LeafSchedule out = sched.schedule(mod, arch);
    EXPECT_EQ(out.scheduledOps(), mod.numOps());

    // The first timestep's slot must be filled with both 1-qubit ops.
    ASSERT_GE(out.computeTimesteps(), 1u);
    ASSERT_EQ(out.step(0).activeRegions(), 1u);
    RegionSlotView slot = *out.step(0).begin();
    EXPECT_EQ(slot.region(), 0u);
    std::span<const uint32_t> ops = slot.ops();
    EXPECT_EQ(std::vector<uint32_t>(ops.begin(), ops.end()),
              (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(out.computeTimesteps(), 2u);
}

TEST(Rcp, WeightsConfigurable)
{
    // Zero op-weight still yields a valid schedule.
    RcpScheduler::Weights weights;
    weights.op = 0.0;
    weights.dist = 5.0;
    RcpScheduler sched(weights);
    Module mod = fig4Module();
    MultiSimdArch arch(2);
    LeafSchedule out = sched.schedule(mod, arch);
    validateLeafSchedule(out, arch);
    EXPECT_EQ(out.scheduledOps(), mod.numOps());
}

// --- Validator negative tests ---

/** Hand-build a one-step schedule: (region, kind, ops) triples. */
LeafSchedule
oneStep(const Module &mod, unsigned k,
        std::vector<std::tuple<unsigned, GateKind,
                               std::vector<uint32_t>>> slots)
{
    ScheduleBuilder builder(mod, k);
    builder.beginStep();
    for (auto &[r, kind, ops] : slots) {
        builder.slot(r).kind = kind;
        builder.slot(r).ops = std::move(ops);
    }
    builder.endStep();
    return builder.finish();
}

TEST(Validator, CatchesUnscheduledOp)
{
    Module mod = parallelH(2);
    // op 1 missing
    LeafSchedule sched = oneStep(mod, 1, {{0, GateKind::H, {0}}});
    EXPECT_THROW(validateLeafSchedule(sched, MultiSimdArch(1)),
                 PanicError);
}

TEST(Validator, CatchesMixedTypes)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::T, {reg[1]});
    LeafSchedule sched = oneStep(mod, 1, {{0, GateKind::H, {0, 1}}});
    EXPECT_THROW(validateLeafSchedule(sched, MultiSimdArch(1)),
                 PanicError);
}

TEST(Validator, CatchesDependenceViolation)
{
    Module mod("m");
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::H, {q});
    mod.addGate(GateKind::T, {q});
    // op 1 in the same step as its predecessor
    LeafSchedule sched = oneStep(mod, 2, {{0, GateKind::H, {0}},
                                          {1, GateKind::T, {1}}});
    EXPECT_THROW(validateLeafSchedule(sched, MultiSimdArch(2)),
                 PanicError);
}

TEST(Validator, CatchesDoubleSchedule)
{
    Module mod = parallelH(1);
    LeafSchedule sched = oneStep(mod, 2, {{0, GateKind::H, {0}},
                                          {1, GateKind::H, {0}}});
    EXPECT_THROW(validateLeafSchedule(sched, MultiSimdArch(2)),
                 PanicError);
}

TEST(Validator, CatchesDBudgetViolation)
{
    Module mod = parallelH(3);
    MultiSimdArch arch(1, 2);
    // 3 qubits > d=2
    LeafSchedule sched = oneStep(mod, 1, {{0, GateKind::H, {0, 1, 2}}});
    EXPECT_THROW(validateLeafSchedule(sched, arch), PanicError);
}

// Invariant 4 must reject a qubit touched twice in one timestep even
// when the two touching ops sit in *different* SIMD regions, not just
// within one region slot.
TEST(Validator, CatchesQubitTouchedTwiceAcrossRegions)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 3);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::CNOT, {reg[1], reg[2]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]}); // shares q0 with op 0
    ScheduleBuilder builder(mod, 2);
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {0};
    builder.slot(1).kind = GateKind::CNOT;
    builder.slot(1).ops = {2}; // q0 again, in the other region
    builder.endStep();
    builder.beginStep();
    builder.slot(0).kind = GateKind::CNOT;
    builder.slot(0).ops = {1};
    builder.endStep();
    LeafSchedule sched = builder.finish();

    EXPECT_THROW(validateLeafSchedule(sched, MultiSimdArch(2)),
                 PanicError);

    DiagnosticEngine diags;
    EXPECT_FALSE(validateLeafSchedule(sched, MultiSimdArch(2), &diags));
    EXPECT_TRUE(diags.has(DiagCode::SchedQubitConflict));
}

// The collect mode reports *every* violation of a doubly-broken
// schedule with distinct codes; the default mode still fails fast.
TEST(Validator, CollectModeReportsAllViolations)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 3);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::T, {reg[1]});
    mod.addGate(GateKind::H, {reg[2]});

    // breakage 1: T in an H slot; breakage 2: op 2 never scheduled.
    LeafSchedule sched = oneStep(mod, 2, {{0, GateKind::H, {0, 1}}});

    DiagnosticEngine diags;
    EXPECT_FALSE(validateLeafSchedule(sched, MultiSimdArch(2), &diags));
    EXPECT_EQ(diags.numErrors(), 2u);
    EXPECT_TRUE(diags.has(DiagCode::SchedMixedKinds));
    EXPECT_TRUE(diags.has(DiagCode::SchedOpMissing));

    // Existing callers (no engine) still fail fast on the first one.
    EXPECT_THROW(validateLeafSchedule(sched, MultiSimdArch(2)),
                 PanicError);
}

TEST(Validator, CollectModeAcceptsValidSchedule)
{
    Module mod = parallelH(4);
    LpfsScheduler lpfs;
    MultiSimdArch arch(2);
    LeafSchedule out = lpfs.schedule(mod, arch);
    DiagnosticEngine diags;
    EXPECT_TRUE(validateLeafSchedule(out, arch, &diags));
    EXPECT_EQ(diags.numErrors(), 0u);
}

} // namespace
