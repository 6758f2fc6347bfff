/**
 * @file
 * Unit tests for the compact SoA schedule representation: ScheduleBuffer
 * offsets, steps() and slot iteration, builder round-trips, copy-on-write
 * mutation, and the leaf-cache aliasing regression (a fault injected
 * after a cache hit must never corrupt a plan the cache holds; only
 * perfbench's trace replica still stores plans there).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/schedule_summary.hh"
#include "arch/schedule.hh"
#include "sched/comm.hh"
#include "sched/leaf_cache.hh"
#include "sched/lpfs.hh"
#include "support/logging.hh"

namespace {

using namespace msq;

/** n parallel single-qubit H gates. */
Module
parallelH(unsigned n)
{
    Module mod("h");
    auto reg = mod.addRegister("q", n);
    for (QubitId q : reg)
        mod.addGate(GateKind::H, {q});
    return mod;
}

/** The regions @p step's slots name, in slot order. */
std::vector<unsigned>
slotRegions(const TimestepView &step)
{
    std::vector<unsigned> regions;
    for (RegionSlotView slot : step)
        regions.push_back(slot.region());
    return regions;
}

/** The step's slots in iteration (region-ascending) order. */
std::vector<RegionSlotView>
slotsOf(const TimestepView &step)
{
    std::vector<RegionSlotView> slots;
    for (RegionSlotView slot : step)
        slots.push_back(slot);
    return slots;
}

TEST(ScheduleBuffer, EmptySchedule)
{
    Module mod("empty");
    LeafSchedule sched(mod, 4);
    EXPECT_EQ(sched.computeTimesteps(), 0u);
    EXPECT_EQ(sched.scheduledOps(), 0u);
    ResourceSummary fold = summarizeLeafSchedule(sched, MultiSimdArch(4));
    EXPECT_EQ(fold.peakActiveRegions, 0u);
    EXPECT_EQ(fold.serialCycles, 0u);
    EXPECT_EQ(fold.teleportMoves, 0u);
}

TEST(ScheduleBuffer, BuilderRoundTrip)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 4);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::H, {reg[1]});
    mod.addGate(GateKind::T, {reg[2]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});

    ScheduleBuilder builder(mod, 4);
    // Step 0: regions 0 (H x2) and 3 (T); regions 1-2 empty.
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {0, 1};
    builder.slot(3).kind = GateKind::T;
    builder.slot(3).ops = {2};
    builder.endStep();
    // Step 1: fully empty.
    builder.beginStep();
    builder.endStep();
    // Step 2: region 2 only.
    builder.beginStep();
    builder.slot(2).kind = GateKind::CNOT;
    builder.slot(2).ops = {3};
    builder.endStep();
    LeafSchedule sched = builder.finish();

    const ScheduleBuffer &buf = sched.buffer();
    EXPECT_EQ(buf.numSteps(), 3u);
    // Only active (step, region) pairs get a slot record.
    EXPECT_EQ(buf.slots.size(), 3u);
    EXPECT_EQ(buf.ops.size(), 4u);

    TimestepView s0 = sched.step(0);
    EXPECT_EQ(s0.activeRegions(), 2u);
    const std::vector<RegionSlotView> slots0 = slotsOf(s0);
    ASSERT_EQ(slots0.size(), 2u);
    EXPECT_EQ(slots0[0].region(), 0u);
    EXPECT_EQ(slots0[0].kind(), GateKind::H);
    EXPECT_EQ(slots0[0].ops().size(), 2u);
    EXPECT_EQ(slots0[1].region(), 3u);
    EXPECT_EQ(slots0[1].ops()[0], 2u);

    TimestepView s1 = sched.step(1);
    EXPECT_EQ(s1.activeRegions(), 0u);
    EXPECT_TRUE(slotRegions(s1).empty());

    TimestepView s2 = sched.step(2);
    EXPECT_EQ(s2.activeRegions(), 1u);
    const std::vector<RegionSlotView> slots2 = slotsOf(s2);
    ASSERT_EQ(slots2.size(), 1u);
    EXPECT_EQ(slots2[0].region(), 2u);
    EXPECT_EQ(slots2[0].kind(), GateKind::CNOT);

    EXPECT_EQ(summarizeLeafSchedule(sched, MultiSimdArch(4))
                  .peakActiveRegions,
              2u);
    EXPECT_EQ(sched.scheduledOps(), 4u);
}

TEST(ScheduleBuffer, OpRangesTileTheStream)
{
    Module mod = parallelH(6);
    ScheduleBuilder builder(mod, 3);
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {0, 1};
    builder.slot(1).kind = GateKind::H;
    builder.slot(1).ops = {2};
    builder.endStep();
    builder.beginStep();
    builder.slot(2).kind = GateKind::H;
    builder.slot(2).ops = {3, 4, 5};
    builder.endStep();
    LeafSchedule sched = builder.finish();

    const ScheduleBuffer &buf = sched.buffer();
    // Each slot's op range begins exactly where the previous one ended.
    uint32_t prev_end = 0;
    for (uint32_t i = 0; i < buf.slots.size(); ++i) {
        EXPECT_EQ(buf.opBegin(i), prev_end);
        EXPECT_GT(buf.slots[i].opEnd, prev_end); // never empty
        prev_end = buf.slots[i].opEnd;
    }
    EXPECT_EQ(prev_end, buf.ops.size());
}

TEST(ScheduleBuffer, SlotIterationIsRegionAscending)
{
    Module mod = parallelH(3);
    ScheduleBuilder builder(mod, 8);
    builder.beginStep();
    // Drafted out of order; sealed region-sorted.
    builder.slot(5).kind = GateKind::H;
    builder.slot(5).ops = {2};
    builder.slot(1).kind = GateKind::H;
    builder.slot(1).ops = {0};
    builder.slot(3).kind = GateKind::H;
    builder.slot(3).ops = {1};
    builder.endStep();
    LeafSchedule sched = builder.finish();

    std::vector<unsigned> regions;
    for (RegionSlotView slot : sched.step(0))
        regions.push_back(slot.region());
    EXPECT_EQ(regions, (std::vector<unsigned>{1, 3, 5}));
}

TEST(ScheduleBuffer, SlotsPastSixtyFourRegions)
{
    Module mod = parallelH(2);
    const unsigned k = 130;
    ScheduleBuilder builder(mod, k);
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {0};
    builder.slot(129).kind = GateKind::H;
    builder.slot(129).ops = {1};
    builder.endStep();
    LeafSchedule sched = builder.finish();

    EXPECT_EQ(slotRegions(sched.step(0)),
              (std::vector<unsigned>{0, 129}));
}

TEST(ScheduleBuffer, BuilderGuardsAgainstMisuse)
{
    Module mod = parallelH(1);
    ScheduleBuilder builder(mod, 1);
    EXPECT_THROW(builder.endStep(), PanicError);
    builder.beginStep();
    EXPECT_THROW(builder.beginStep(), PanicError);
    EXPECT_THROW(builder.finish(), PanicError);
}

TEST(ScheduleBuffer, AppendMoveShiftsLaterSteps)
{
    Module mod = parallelH(2);
    ScheduleBuilder builder(mod, 1);
    for (uint32_t i = 0; i < 2; ++i) {
        builder.beginStep();
        builder.slot(0).kind = GateKind::H;
        builder.slot(0).ops = {i};
        builder.endStep();
    }
    LeafSchedule sched = builder.finish();
    Move late{1, Location::global(), Location::inRegion(0), true};
    sched.appendMove(1, late);
    Move early{0, Location::global(), Location::inRegion(0), false};
    sched.appendMove(0, early);

    ASSERT_EQ(sched.step(0).moves().size(), 1u);
    EXPECT_EQ(sched.step(0).moves()[0].qubit, 0u);
    ASSERT_EQ(sched.step(1).moves().size(), 1u);
    EXPECT_EQ(sched.step(1).moves()[0].qubit, 1u);
    EXPECT_THROW(sched.appendMove(2, early), PanicError);
}

TEST(ScheduleBuffer, AppendEmptyStep)
{
    Module mod = parallelH(1);
    LeafSchedule sched(mod, 2);
    sched.appendEmptyStep();
    sched.appendEmptyStep();
    EXPECT_EQ(sched.computeTimesteps(), 2u);
    EXPECT_EQ(sched.step(1).activeRegions(), 0u);
    EXPECT_TRUE(sched.step(1).moves().empty());
    // Gate phases only.
    EXPECT_EQ(summarizeLeafSchedule(sched, MultiSimdArch(2)).serialCycles,
              2u);
}

/** The visit sequence of range-for over @p sched.steps() as a compact
 * string: b<step> per step, s<region> per slot, m per move, e at the
 * end of each step. */
std::string
visitLog(const LeafSchedule &sched)
{
    std::string log;
    uint64_t expected_index = 0;
    for (TimestepView step : sched.steps()) {
        EXPECT_EQ(step.index(), expected_index++);
        log += "b" + std::to_string(step.index());
        for (RegionSlotView slot : step)
            log += "s" + std::to_string(slot.region());
        for (size_t i = 0; i < step.moves().size(); ++i)
            log += "m";
        log += "e";
    }
    return log;
}

TEST(ScheduleBuffer, StepsVisitInOrder)
{
    Module mod = parallelH(3);
    ScheduleBuilder builder(mod, 2);
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {0};
    builder.slot(1).kind = GateKind::H;
    builder.slot(1).ops = {1};
    builder.endStep();
    builder.beginStep();
    builder.slot(0).kind = GateKind::H;
    builder.slot(0).ops = {2};
    builder.endStep();
    LeafSchedule sched = builder.finish();
    sched.appendMove(0,
                     {0, Location::global(), Location::inRegion(0), false});

    EXPECT_EQ(visitLog(sched), "b0s0s1meb1s0e");
    std::vector<uint32_t> ops;
    for (TimestepView step : sched.steps())
        for (RegionSlotView slot : step)
            ops.insert(ops.end(), slot.ops().begin(), slot.ops().end());
    EXPECT_EQ(ops, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(ScheduleBuffer, CopyOnWriteDetachesAliasedBuffers)
{
    Module mod = parallelH(2);
    LpfsScheduler lpfs;
    LeafSchedule sched = lpfs.schedule(mod, MultiSimdArch(2));

    LeafSchedule alias(mod, sched.sharedBuffer());
    ASSERT_EQ(alias.sharedBuffer().get(), sched.sharedBuffer().get());

    alias.appendMove(0,
                     {0, Location::global(), Location::inRegion(0), true});
    // The alias detached; the original handle's buffer is untouched.
    EXPECT_NE(alias.sharedBuffer().get(), sched.sharedBuffer().get());
    EXPECT_EQ(sched.step(0).moves().size(), 0u);
    EXPECT_EQ(alias.step(0).moves().size(), 1u);
}

// Regression for the shared-cache mutation hazard: with the old mutable
// steps() accessor, msq-verify's fault injection (or any consumer)
// could silently corrupt a plan other handles shared. Now every cached
// buffer copies on mutation because the cache holds its own reference.
TEST(LeafScheduleCacheCow, FaultInjectionAfterHitLeavesCacheIntact)
{
    Module mod("m");
    auto reg = mod.addRegister("q", 3);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::T, {reg[2]});

    MultiSimdArch arch(2);
    LpfsScheduler lpfs;
    LeafSchedule sched = lpfs.schedule(mod, arch);
    CommunicationAnalyzer comm(arch, CommMode::Global);

    LeafScheduleCache cache;
    auto result = std::make_shared<LeafScheduleResult>();
    result->stats = comm.annotate(sched);
    result->schedule = sched.sharedBuffer();
    cache.insert("key", std::move(result));

    auto hit = cache.lookup("key");
    ASSERT_TRUE(hit);
    ASSERT_TRUE(hit->schedule);
    const uint64_t pristine_moves = hit->schedule->moves.size();

    // A consumer rebinds the cached plan and injects a fault into it.
    LeafSchedule rebound(mod, hit->schedule);
    rebound.appendMove(
        0, {reg[2], Location::inRegion(0), Location::global(), true});
    EXPECT_EQ(rebound.buffer().moves.size(), pristine_moves + 1);

    // The cached buffer is byte-identical to before the injection...
    EXPECT_EQ(hit->schedule->moves.size(), pristine_moves);
    EXPECT_NE(rebound.sharedBuffer().get(), hit->schedule.get());

    // ...and a second hit still serves the pristine plan.
    auto hit2 = cache.lookup("key");
    LeafSchedule again(mod, hit2->schedule);
    EXPECT_EQ(again.buffer().moves.size(), pristine_moves);
    EXPECT_EQ(again.sharedBuffer().get(), hit->schedule.get());
}

// The analyzer re-annotates through MoveAnnotator, which also must
// detach instead of clearing a cached plan's movement stream in place.
TEST(LeafScheduleCacheCow, ReannotationDetachesCachedBuffer)
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

    std::shared_ptr<const ScheduleBuffer> cached = sched.sharedBuffer();
    const uint64_t cached_moves = cached->moves.size();

    LeafSchedule rebound(mod, cached);
    CommStats stats = comm.annotate(rebound);
    EXPECT_EQ(cached->moves.size(), cached_moves);
    EXPECT_NE(rebound.sharedBuffer().get(), cached.get());
    // Determinism: the re-derived plan matches the cached one.
    EXPECT_EQ(rebound.buffer().moves.size(), cached_moves);
    EXPECT_EQ(stats.totalCycles,
              summarizeLeafSchedule(rebound, arch).serialCycles);
}

TEST(ScheduleBuffer, ByteSizeCoversAllArrays)
{
    Module mod = parallelH(8);
    LpfsScheduler lpfs;
    LeafSchedule sched = lpfs.schedule(mod, MultiSimdArch(4));
    const ScheduleBuffer &buf = sched.buffer();
    uint64_t floor = sizeof(ScheduleBuffer) +
                     buf.slots.size() * sizeof(ScheduleBuffer::Slot) +
                     buf.ops.size() * sizeof(uint32_t);
    EXPECT_GE(buf.byteSize(), floor);
}

TEST(ScheduleBuffer, StepsOverAllEmptySteps)
{
    // A schedule made purely of empty steps: steps() must still visit
    // every step, each one idle.
    Module mod = parallelH(1);
    LeafSchedule sched(mod, 4);
    for (int i = 0; i < 3; ++i)
        sched.appendEmptyStep();

    for (TimestepView step : sched.steps()) {
        EXPECT_EQ(step.activeRegions(), 0u);
        EXPECT_TRUE(step.moves().empty());
        EXPECT_EQ(movePhaseCycles(step.moves()), 0u);
    }
    EXPECT_EQ(visitLog(sched), "b0eb1eb2e");
    // Idle gate phases still tick.
    EXPECT_EQ(summarizeLeafSchedule(sched, MultiSimdArch(4)).serialCycles,
              3u);
}

TEST(ScheduleBuffer, MoveOnlyTimestepCosts)
{
    // A step with no compute, only movement. A blocking teleport costs
    // a full teleport phase; a masked one rides along for free; a
    // local-memory move alone costs the (cheaper) ballistic phase.
    Module mod = parallelH(3);
    LeafSchedule sched(mod, 2);
    sched.appendEmptyStep();
    sched.appendEmptyStep();
    sched.appendMove(
        0, {0, Location::global(), Location::inRegion(0), true});
    sched.appendMove(
        0, {1, Location::global(), Location::inRegion(1), false});
    sched.appendMove(0, {2, Location::inRegion(0),
                         Location::inLocalMem(0), false});

    TimestepView step = sched.step(0);
    EXPECT_EQ(step.activeRegions(), 0u);
    ASSERT_EQ(step.moves().size(), 3u);
    EXPECT_EQ(movePhaseCycles(step.moves()),
              MultiSimdArch::teleportCycles);

    // 2 gate phases + one teleport phase on step 0, step 1 bare.
    const MultiSimdArch arch(2);
    ResourceSummary fold = summarizeLeafSchedule(sched, arch);
    EXPECT_EQ(fold.serialCycles, 2u + MultiSimdArch::teleportCycles);
    EXPECT_EQ(fold.teleportMoves, 2u);
    EXPECT_EQ(fold.blockingTeleports, 1u);
    EXPECT_EQ(fold.localMoves, 1u);
    EXPECT_EQ(visitLog(sched), "b0mmmeb1e");

    // Masked-and-local only (no blocking): ballistic phase cost.
    EXPECT_EQ(movePhaseCycles(sched.step(1).moves()), 0u);
    sched.appendMove(1, {2, Location::inLocalMem(0),
                         Location::inRegion(0), false});
    EXPECT_EQ(movePhaseCycles(sched.step(1).moves()),
              MultiSimdArch::localMoveCycles);
    EXPECT_EQ(summarizeLeafSchedule(sched, arch).stepsWithOnlyLocalMoves,
              1u);
}

TEST(ScheduleBuffer, FullyIdleRegionsAroundOneActiveSlot)
{
    // k=4 but only region 2 computes: slot iteration must skip the
    // other three entirely.
    Module mod = parallelH(1);
    ScheduleBuilder builder(mod, 4);
    builder.beginStep();
    builder.slot(2).kind = GateKind::H;
    builder.slot(2).ops = {0};
    builder.endStep();
    LeafSchedule sched = builder.finish();

    TimestepView step = sched.step(0);
    EXPECT_EQ(step.activeRegions(), 1u);
    unsigned slots = 0;
    for (RegionSlotView slot : step) {
        EXPECT_EQ(slot.region(), 2u);
        ++slots;
    }
    EXPECT_EQ(slots, 1u);
}

} // namespace
