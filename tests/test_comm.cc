/**
 * @file
 * Tests for the communication analyzer: movement derivation, latency
 * masking, eviction policy, local-memory scheduling and capacity limits.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"

#include "sched/comm.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"

#include "expect_clean_plan.hh"
#include "test_schedule_builder.hh"

namespace {

using namespace msq;

using test::TestScheduleBuilder;

TEST(Comm, NoneModeLeavesScheduleAlone)
{
    Module mod("m");
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::H, {q});
    LeafSchedule sched = TestScheduleBuilder(mod, 1).step({{0, 0}}).take();
    CommunicationAnalyzer comm(MultiSimdArch(1), CommMode::None);
    CommStats stats = comm.annotate(sched);
    EXPECT_EQ(stats.teleportMoves, 0u);
    EXPECT_EQ(stats.totalCycles, 1u);
}

TEST(Comm, FirstTouchIsMaskedTeleport)
{
    // A fresh qubit's fetch from memory is pipelined ahead: no blocking.
    Module mod("m");
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::H, {q});
    LeafSchedule sched = TestScheduleBuilder(mod, 1).step({{0, 0}}).take();
    CommunicationAnalyzer comm(MultiSimdArch(1), CommMode::Global);
    CommStats stats = comm.annotate(sched);
    EXPECT_EQ(stats.teleportMoves, 1u);
    EXPECT_EQ(stats.blockingTeleports, 0u);
    EXPECT_EQ(stats.totalCycles, 1u);
    test::expectCleanPlan(sched, MultiSimdArch(1));
}

TEST(Comm, PinnedChainHasNoFurtherMoves)
{
    Module mod("m");
    QubitId q = mod.addLocal("q");
    for (int i = 0; i < 10; ++i)
        mod.addGate(GateKind::T, {q});
    TestScheduleBuilder builder(mod, 1);
    for (uint32_t i = 0; i < 10; ++i)
        builder.step({{0, i}});
    LeafSchedule sched = builder.take();
    CommunicationAnalyzer comm(MultiSimdArch(1), CommMode::Global);
    CommStats stats = comm.annotate(sched);
    EXPECT_EQ(stats.teleportMoves, 1u); // the initial fetch only
    EXPECT_EQ(stats.totalCycles, 10u);
    test::expectCleanPlan(sched, MultiSimdArch(1));
}

TEST(Comm, TightCrossRegionMoveBlocks)
{
    // q used in region 0 at step 0 and in region 1 at step 1: the
    // teleport cannot be masked.
    Module mod("m");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    mod.addGate(GateKind::H, {a});
    mod.addGate(GateKind::CNOT, {a, b});
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{1, 1}}).take();
    CommunicationAnalyzer comm(MultiSimdArch(2), CommMode::Global);
    CommStats stats = comm.annotate(sched);
    EXPECT_EQ(stats.blockingTeleports, 1u);
    // cycles: step0 = 1, step1 = 1 + 4.
    EXPECT_EQ(stats.totalCycles, 6u);
    test::expectCleanPlan(sched, MultiSimdArch(2));
}

TEST(Comm, DistantCrossRegionMoveIsMasked)
{
    // Same cross-region move, but with >= 4 idle steps between uses.
    Module mod("m");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    QubitId z = mod.addLocal("z");
    mod.addGate(GateKind::H, {a});        // op0: step 0, region 0
    for (int i = 0; i < 5; ++i)
        mod.addGate(GateKind::T, {z});    // ops 1..5 filler
    mod.addGate(GateKind::CNOT, {a, b});  // op6: step 5, region 1
    TestScheduleBuilder builder(mod, 2);
    builder.step({{0, 0}, {1, 1}});
    for (uint32_t i = 2; i <= 5; ++i)
        builder.step({{1, i}});
    builder.step({{0, 6}});
    LeafSchedule sched = builder.take();
    CommunicationAnalyzer comm(MultiSimdArch(2), CommMode::Global);
    CommStats stats = comm.annotate(sched);
    // a's move into region 0's CNOT is... a stays in region 0 (idle
    // region) - actually region 0 is idle steps 1-4, so a never moves.
    // b is fetched fresh (masked). z pinned in region 1.
    EXPECT_EQ(stats.blockingTeleports, 0u);
    EXPECT_EQ(stats.totalCycles, 6u);
    test::expectCleanPlan(sched, MultiSimdArch(2));
}

TEST(Comm, EvictionFromActiveRegion)
{
    // q0 used at step 0; region 0 stays active with q1 at step 1; q0
    // must be evicted. Its next use is far away -> masked eviction.
    Module mod("m");
    QubitId q0 = mod.addLocal("q0");
    QubitId q1 = mod.addLocal("q1");
    mod.addGate(GateKind::H, {q0});  // op0
    for (int i = 0; i < 6; ++i)
        mod.addGate(GateKind::T, {q1}); // ops1..6
    mod.addGate(GateKind::H, {q0});  // op7
    TestScheduleBuilder builder(mod, 1);
    builder.step({{0, 0}});
    for (uint32_t i = 1; i <= 6; ++i)
        builder.step({{0, i}});
    builder.step({{0, 7}});
    LeafSchedule sched = builder.take();
    CommunicationAnalyzer comm(MultiSimdArch(1), CommMode::Global);
    CommStats stats = comm.annotate(sched);
    // Moves: fetch q0 (masked), fetch q1 (masked), evict q0 (masked,
    // next use 7 steps away), re-fetch q0 (masked: idle since evict at
    // step 1, used step 7), and the final eviction of q1 at step 7
    // (masked, never used again).
    EXPECT_EQ(stats.teleportMoves, 5u);
    EXPECT_EQ(stats.blockingTeleports, 0u);
    EXPECT_EQ(stats.totalCycles, 8u);
    test::expectCleanPlan(sched, MultiSimdArch(1));
}

/** The "moved aside temporarily" pattern of §4.4: q0 sits out exactly
 * one active timestep and returns to the same region. */
LeafSchedule
tightReuseSchedule(Module &mod)
{
    QubitId q0 = mod.addLocal("q0");
    QubitId q1 = mod.addLocal("q1");
    mod.addGate(GateKind::H, {q0});  // op0 step0
    mod.addGate(GateKind::T, {q1});  // op1 step1 (q0 idle, evicted)
    mod.addGate(GateKind::H, {q0});  // op2 step2 (q0 returns)
    return TestScheduleBuilder(mod, 1)
        .step({{0, 0}})
        .step({{0, 1}})
        .step({{0, 2}})
        .take();
}

TEST(Comm, TightReuseWithoutLocalMemoryPaysTeleports)
{
    Module mod("m");
    LeafSchedule sched = tightReuseSchedule(mod);
    CommunicationAnalyzer comm(MultiSimdArch(1), CommMode::Global);
    CommStats stats = comm.annotate(sched);
    EXPECT_EQ(stats.blockingTeleports, 2u); // tight evict + tight fetch
    // cycles: 1 + (1+4) + (1+4)
    EXPECT_EQ(stats.totalCycles, 11u);
    test::expectCleanPlan(sched, MultiSimdArch(1));
}

TEST(Comm, TightReuseWithLocalMemoryUsesBallisticMoves)
{
    Module mod("m");
    LeafSchedule sched = tightReuseSchedule(mod);
    MultiSimdArch arch(1, unbounded, 4);
    CommunicationAnalyzer comm(arch, CommMode::GlobalWithLocalMem);
    CommStats stats = comm.annotate(sched);
    EXPECT_EQ(stats.localMoves, 2u); // aside + back
    EXPECT_EQ(stats.blockingTeleports, 0u);
    // cycles: 1 + (1+1) + (1+1); the initial fetch is masked.
    EXPECT_EQ(stats.totalCycles, 5u);
    test::expectCleanPlan(sched, arch);
}

TEST(Comm, LocalMemoryCapacityRespected)
{
    // Two qubits need to sit out the same step, capacity 1: one goes to
    // the scratchpad, the other teleports to global.
    Module mod("m");
    QubitId q0 = mod.addLocal("q0");
    QubitId q1 = mod.addLocal("q1");
    QubitId q2 = mod.addLocal("q2");
    mod.addGate(GateKind::H, {q0});               // op0
    mod.addGate(GateKind::H, {q1});               // op0' same step
    mod.addGate(GateKind::T, {q2});               // op2: q0,q1 sit out
    mod.addGate(GateKind::CNOT, {q0, q1});        // op3: both return
    LeafSchedule sched = TestScheduleBuilder(mod, 1)
                             .step({{0, 0}})
                             .step({{0, 1}})
                             .step({{0, 2}})
                             .step({{0, 3}})
                             .take();
    // note: ops 0 and 1 are both H on different qubits; schedule them
    // in separate steps for simplicity of the expected counts.
    MultiSimdArch arch(1, unbounded, 1);
    CommunicationAnalyzer comm(arch, CommMode::GlobalWithLocalMem);
    CommStats stats = comm.annotate(sched);
    EXPECT_EQ(stats.localMoves, 2u);       // one qubit aside + back
    EXPECT_GE(stats.blockingTeleports, 1u); // the other thrashes global
    test::expectCleanPlan(sched, arch);
}

TEST(Comm, AnnotateIsIdempotent)
{
    Module mod("m");
    LeafSchedule sched = tightReuseSchedule(mod);
    CommunicationAnalyzer comm(MultiSimdArch(1), CommMode::Global);
    CommStats first = comm.annotate(sched);
    CommStats second = comm.annotate(sched);
    EXPECT_EQ(first.teleportMoves, second.teleportMoves);
    EXPECT_EQ(first.totalCycles, second.totalCycles);
}

TEST(Comm, SchedulerOutputsStayConsistent)
{
    // Integration: RCP and LPFS schedules annotate into move-consistent
    // schedules on a nontrivial module.
    Module mod("m");
    auto reg = mod.addRegister("q", 6);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 6; ++i)
            mod.addGate(GateKind::T, {reg[i]});
        for (int i = 0; i + 1 < 6; i += 2)
            mod.addGate(GateKind::CNOT, {reg[i], reg[i + 1]});
    }
    for (auto mode : {CommMode::Global, CommMode::GlobalWithLocalMem}) {
        MultiSimdArch arch(3, unbounded, 8);
        RcpScheduler rcp;
        LeafSchedule rs = rcp.schedule(mod, arch);
        CommunicationAnalyzer comm(arch, mode);
        comm.annotate(rs);
        test::expectCleanPlan(rs, arch);

        LpfsScheduler lpfs;
        LeafSchedule ls = lpfs.schedule(mod, arch);
        comm.annotate(ls);
        test::expectCleanPlan(ls, arch);
    }
}

} // namespace
