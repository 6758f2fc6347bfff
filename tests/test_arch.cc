/**
 * @file
 * Tests for the architecture model: Multi-SIMD configuration, locations,
 * moves, timesteps and the LeafSchedule container.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/schedule_summary.hh"
#include "arch/location.hh"
#include "arch/multi_simd.hh"
#include "arch/schedule.hh"
#include "support/logging.hh"

namespace {

using namespace msq;

TEST(MultiSimdArch, Defaults)
{
    MultiSimdArch arch;
    EXPECT_EQ(arch.k, 4u);
    EXPECT_EQ(arch.d, unbounded);
    EXPECT_EQ(arch.localMemCapacity, 0u);
    arch.validate();
}

TEST(MultiSimdArch, ValidateRejectsZeroK)
{
    MultiSimdArch arch(0);
    EXPECT_THROW(arch.validate(), FatalError);
}

TEST(MultiSimdArch, ValidateRejectsZeroD)
{
    MultiSimdArch arch(2, 0);
    EXPECT_THROW(arch.validate(), FatalError);
}

// A 0-bandwidth EPR channel can never service a teleport; it used to be
// silently treated as "one phase" deep inside the cost model. It is now
// rejected up front as a configuration error.
TEST(MultiSimdArch, ValidateRejectsZeroEprBandwidth)
{
    MultiSimdArch arch = MultiSimdArch(2).withEprBandwidth(0);
    EXPECT_THROW(arch.validate(), FatalError);
}

TEST(MultiSimdArch, Describe)
{
    EXPECT_EQ(MultiSimdArch(4).describe(), "Multi-SIMD(4,inf)");
    EXPECT_EQ(MultiSimdArch(2, 128).describe(), "Multi-SIMD(2,128)");
    EXPECT_EQ(MultiSimdArch(4, unbounded, 32).describe(),
              "Multi-SIMD(4,inf)+local(32)");
    EXPECT_EQ(MultiSimdArch(4, unbounded, unbounded).describe(),
              "Multi-SIMD(4,inf)+local(inf)");

    // A report's "arch" names the machine it ran on, so the qubit
    // mapping and any extra links show; the default mapping adds none.
    auto describe = [](const std::string &spec) {
        MultiSimdArch arch(4);
        std::string error;
        EXPECT_TRUE(parseTopologySpec(spec, arch, error)) << error;
        return arch.describe();
    };
    const std::string ring = "cores=4,k=1,shape=ring,link-bw=2";
    EXPECT_EQ(describe(ring),
              "Multi-SIMD(4,inf) on ring(4x1, link-bw=2, link-lat=4)");
    EXPECT_EQ(describe(ring + ",map=greedy"), describe(ring));
    EXPECT_EQ(describe(ring + ",map=roundrobin"),
              "Multi-SIMD(4,inf) on ring(4x1, link-bw=2, link-lat=4, "
              "map=roundrobin)");
    EXPECT_EQ(describe(ring + ",link=2-0,link=1-3,map=round-robin"),
              "Multi-SIMD(4,inf) on ring(4x1, link-bw=2, link-lat=4, "
              "map=roundrobin, links=0-2.1-3)");
}

TEST(MultiSimdArch, CostConstants)
{
    EXPECT_EQ(MultiSimdArch::gateCycles, 1u);
    EXPECT_EQ(MultiSimdArch::teleportCycles, 4u);
    EXPECT_EQ(MultiSimdArch::localMoveCycles, 1u);
    EXPECT_EQ(MultiSimdArch::naiveCyclesPerGate, 5u);
}

TEST(CommMode, Names)
{
    EXPECT_STREQ(commModeName(CommMode::None), "none");
    EXPECT_STREQ(commModeName(CommMode::Global), "global");
    EXPECT_STREQ(commModeName(CommMode::GlobalWithLocalMem),
                 "global+local");
}

TEST(Location, EqualityComparesMemoryBankCore)
{
    // Global-memory locations carry the core index of the bank they
    // denote (DESIGN.md §16): same bank compares equal, different banks
    // differ. On the flat machine only bank 0 is ever constructed, so
    // this refinement changes nothing there.
    EXPECT_EQ(Location::global(), Location::global());
    EXPECT_EQ(Location::global(), Location::inMemory(0));
    EXPECT_NE(Location::inMemory(0), Location::inMemory(7));
    EXPECT_EQ(Location::inMemory(3), Location::inMemory(3));
    EXPECT_NE(Location::inRegion(1), Location::inRegion(2));
    EXPECT_NE(Location::inRegion(1), Location::inLocalMem(1));
    EXPECT_EQ(Location::inLocalMem(3), Location::inLocalMem(3));
}

TEST(Location, Describe)
{
    EXPECT_EQ(Location::global().describe(), "mem");
    EXPECT_EQ(Location::inMemory(0).describe(), "mem");
    EXPECT_EQ(Location::inMemory(2).describe(), "mem2");
    EXPECT_EQ(Location::inRegion(2).describe(), "r2");
    EXPECT_EQ(Location::inLocalMem(2).describe(), "r2.local");
}

TEST(Move, LocalityClassification)
{
    Move to_local{0, Location::inRegion(1), Location::inLocalMem(1), true};
    EXPECT_TRUE(to_local.isLocal());
    Move from_local{0, Location::inLocalMem(1), Location::inRegion(1),
                    true};
    EXPECT_TRUE(from_local.isLocal());
    Move cross{0, Location::inLocalMem(1), Location::inRegion(2), true};
    EXPECT_FALSE(cross.isLocal());
    Move teleport{0, Location::global(), Location::inRegion(0), true};
    EXPECT_FALSE(teleport.isLocal());
    Move region_to_region{0, Location::inRegion(0), Location::inRegion(1),
                          true};
    EXPECT_FALSE(region_to_region.isLocal());
}

TEST(MovePhase, Costs)
{
    std::vector<Move> moves;
    auto cycles = [&] {
        return movePhaseCycles(moves);
    };
    EXPECT_EQ(cycles(), 0u);

    // Masked teleport: free.
    moves.push_back({0, Location::global(), Location::inRegion(0), false});
    EXPECT_EQ(cycles(), 0u);

    // Local move: one cycle.
    moves.push_back(
        {1, Location::inRegion(0), Location::inLocalMem(0), false});
    EXPECT_EQ(cycles(), 1u);

    // Any blocking teleport: full four cycles.
    moves.push_back({2, Location::inRegion(1), Location::global(), true});
    EXPECT_EQ(cycles(), 4u);
}

TEST(MovePhase, PanicsOnZeroEprBandwidth)
{
    std::vector<Move> moves;
    moves.push_back({0, Location::global(), Location::inRegion(0), true});
    EXPECT_THROW(movePhaseCycles(moves, 0), PanicError);
}

TEST(TimestepView, ActiveRegions)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::T, {reg[1]});

    ScheduleBuilder builder(mod, 3);
    builder.beginStep();
    builder.endStep();
    builder.beginStep();
    builder.slot(1).kind = GateKind::H;
    builder.slot(1).ops.push_back(0);
    builder.slot(2).kind = GateKind::T;
    builder.slot(2).ops.push_back(1);
    builder.endStep();
    LeafSchedule sched = builder.finish();

    EXPECT_EQ(sched.step(0).activeRegions(), 0u);
    EXPECT_EQ(sched.step(1).activeRegions(), 2u);
    std::vector<unsigned> regions;
    for (RegionSlotView slot : sched.step(1))
        regions.push_back(slot.region());
    EXPECT_EQ(regions, (std::vector<unsigned>{1, 2}));
}

TEST(LeafSchedule, Accounting)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::H, {reg[1]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});

    ScheduleBuilder builder(mod, 2);
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {0, 1};
    builder.endStep();
    builder.beginStep();
    builder.slot(1).kind = GateKind::CNOT;
    builder.slot(1).ops = {2};
    builder.endStep();
    LeafSchedule sched = builder.finish();
    sched.appendMove(
        1, {reg[1], Location::inRegion(0), Location::inRegion(1), true});
    sched.appendMove(1, {reg[0], Location::inRegion(0),
                         Location::inLocalMem(0), false});

    EXPECT_EQ(sched.computeTimesteps(), 2u);
    EXPECT_EQ(sched.scheduledOps(), 3u);
    ResourceSummary fold = summarizeLeafSchedule(sched, MultiSimdArch(2));
    EXPECT_EQ(fold.peakActiveRegions, 1u);
    EXPECT_EQ(fold.teleportMoves, 1u);
    EXPECT_EQ(fold.localMoves, 1u);
    // cycles: (1 + 0) + (1 + 4)
    EXPECT_EQ(fold.serialCycles, 6u);
}

} // namespace
