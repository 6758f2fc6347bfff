/**
 * @file
 * Tests for the extension components: invocation counting, gate-mix
 * analysis, EPR channel bandwidth constraints, and the schedule timeline
 * printer.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "analysis/resource_estimator.hh"
#include "sched/comm.hh"
#include "sched/lpfs.hh"
#include "support/logging.hh"

#include "schedule_printer.hh"

namespace {

using namespace msq;

Program
repeatedHierarchy()
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        mod.addGate(GateKind::T, {q});
        mod.addGate(GateKind::H, {q});
        mod.addGate(GateKind::MeasZ, {q});
    }
    ModuleId mid = prog.addModule("mid");
    {
        Module &mod = prog.module(mid);
        QubitId q = mod.addParam("q");
        QubitId r = mod.addLocal("r");
        mod.addGate(GateKind::CNOT, {q, r});
        mod.addCall(leaf, {q}, 4);
        mod.addCall(leaf, {r}, 1);
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(mid, {q}, 10);
    }
    prog.setEntry(top);
    return prog;
}

TEST(InvocationCounts, MultipliesThroughHierarchy)
{
    Program prog = repeatedHierarchy();
    ResourceEstimator inv(prog);
    EXPECT_EQ(inv.invocations(prog.findModule("top")), 1u);
    EXPECT_EQ(inv.invocations(prog.findModule("mid")), 10u);
    // leaf: 10 * (4 + 1).
    EXPECT_EQ(inv.invocations(prog.findModule("leaf")), 50u);
}

TEST(InvocationCounts, UnreachableModuleIsZero)
{
    Program prog = repeatedHierarchy();
    ModuleId orphan = prog.addModule("orphan");
    ResourceEstimator inv(prog);
    EXPECT_EQ(inv.invocations(orphan), 0u);
}

TEST(GateMix, HierarchicalCounts)
{
    Program prog = repeatedHierarchy();
    ResourceEstimator mix(prog);
    const GateMix &program = mix.programMix();
    // leaf runs 50 times: 50 T, 50 H, 50 MeasZ; mid runs 10: 10 CNOT.
    EXPECT_EQ(program.count(GateKind::T), 50u);
    EXPECT_EQ(program.count(GateKind::H), 50u);
    EXPECT_EQ(program.count(GateKind::MeasZ), 50u);
    EXPECT_EQ(program.twoQubitCount(), 10u);
    EXPECT_EQ(program.tCount(), 50u);
    EXPECT_EQ(program.total(), 160u);
}

TEST(GateMix, PerModuleCounts)
{
    Program prog = repeatedHierarchy();
    ResourceEstimator mix(prog);
    const GateMix &leaf = mix.mix(prog.findModule("leaf"));
    EXPECT_EQ(leaf.total(), 3u);
    const GateMix &mid = mix.mix(prog.findModule("mid"));
    EXPECT_EQ(mid.total(), 1u + 5u * 3u);
}

TEST(EprBandwidth, UnboundedMatchesBaseModel)
{
    std::vector<Move> moves;
    moves.push_back({0, Location::global(), Location::inRegion(0), true});
    moves.push_back({1, Location::global(), Location::inRegion(0), true});
    EXPECT_EQ(movePhaseCycles(moves), 4u);
    EXPECT_EQ(movePhaseCycles(moves, unbounded), 4u);
}

TEST(EprBandwidth, FiniteBandwidthSerializesPhases)
{
    std::vector<Move> moves;
    for (uint32_t q = 0; q < 5; ++q)
        moves.push_back(
            {q, Location::global(), Location::inRegion(0), true});
    EXPECT_EQ(movePhaseCycles(moves, 5), 4u);
    EXPECT_EQ(movePhaseCycles(moves, 2), 12u); // ceil(5/2) = 3 phases
    EXPECT_EQ(movePhaseCycles(moves, 1), 20u);
}

TEST(EprBandwidth, MaskedMovesDontConsumeBandwidth)
{
    std::vector<Move> moves;
    for (uint32_t q = 0; q < 5; ++q)
        moves.push_back(
            {q, Location::global(), Location::inRegion(0), false});
    EXPECT_EQ(movePhaseCycles(moves, 1), 0u);
}

TEST(EprBandwidth, AnalyzerReportsPeakDemand)
{
    // 4 qubits used in region 0 at step 0, then all four used across
    // regions at step 1: four tight teleports in one step.
    Module mod("m");
    mod.addRegister("q", 8);
    for (int i = 0; i < 4; ++i)
        mod.addGate(GateKind::H, {static_cast<QubitId>(i)});
    for (int i = 0; i < 4; ++i)
        mod.addGate(GateKind::T, {static_cast<QubitId>(i)});
    ScheduleBuilder builder(mod, 4);
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {0, 1, 2, 3};
    builder.endStep();
    builder.beginStep();
    for (unsigned r = 0; r < 4; ++r) {
        builder.slot(r).kind = GateKind::T;
        builder.slot(r).ops = {4 + r};
    }
    builder.endStep();
    LeafSchedule built = builder.finish();
    MultiSimdArch arch(4);
    CommunicationAnalyzer comm(arch, CommMode::Global);
    CommStats stats = comm.annotate(built);
    // q1..q3 teleport tightly out of region 0 into regions 1..3.
    EXPECT_EQ(stats.peakBlockingMovesPerStep, 3u);

    // A unit-bandwidth channel triples that step's movement phase.
    MultiSimdArch narrow = arch.withEprBandwidth(1);
    CommunicationAnalyzer comm_narrow(narrow, CommMode::Global);
    CommStats stats_narrow = comm_narrow.annotate(built);
    EXPECT_EQ(stats_narrow.totalCycles, stats.totalCycles + 2 * 4);
}

TEST(TimelinePrinter, ShowsRegionsAndMoves)
{
    Module mod("m");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    mod.addGate(GateKind::H, {a});
    mod.addGate(GateKind::CNOT, {a, b});

    MultiSimdArch arch(2);
    LpfsScheduler lpfs;
    LeafSchedule sched = lpfs.schedule(mod, arch);
    CommunicationAnalyzer comm(arch, CommMode::Global);
    comm.annotate(sched);

    std::ostringstream os;
    printTimeline(os, sched);
    std::string text = os.str();
    EXPECT_NE(text.find("t0"), std::string::npos);
    EXPECT_NE(text.find("H:"), std::string::npos);
    EXPECT_NE(text.find("CNOT:"), std::string::npos);
    EXPECT_NE(text.find("mem->r"), std::string::npos);
}

TEST(TimelinePrinter, MaxStepsTruncates)
{
    Module mod("m");
    QubitId q = mod.addLocal("q");
    for (int i = 0; i < 10; ++i)
        mod.addGate(GateKind::T, {q});
    LpfsScheduler lpfs;
    LeafSchedule sched = lpfs.schedule(mod, MultiSimdArch(1));

    std::ostringstream os;
    TimelinePrintOptions options;
    options.maxSteps = 3;
    printTimeline(os, sched, options);
    EXPECT_NE(os.str().find("7 more timesteps"), std::string::npos);
}

} // namespace
