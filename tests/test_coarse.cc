/**
 * @file
 * Tests for the hierarchical coarse-grained scheduler: blackbox
 * dimensions, width sweeps, parallel packing under the k constraint,
 * repeat-counted calls and call overhead accounting.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"
#include "support/strings.hh"

#include "sched/coarse.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"

namespace {

using namespace msq;

/** Program with two independent leaf-call streams plus a serial tail. */
Program
twoStreamProgram(uint64_t repeat = 1)
{
    Program prog;
    ModuleId chain = prog.addModule("chain");
    {
        Module &mod = prog.module(chain);
        QubitId q = mod.addParam("q");
        for (int i = 0; i < 10; ++i)
            mod.addGate(i % 2 ? GateKind::T : GateKind::H, {q});
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId a = mod.addLocal("a");
        QubitId b = mod.addLocal("b");
        mod.addCall(chain, {a}, repeat);
        mod.addCall(chain, {b}, repeat);
        mod.addGate(GateKind::CNOT, {a, b});
    }
    prog.setEntry(top);
    return prog;
}

TEST(ModuleScheduleInfo, BestQueries)
{
    ModuleScheduleInfo info;
    info.analyzed = true;
    info.dims = {{1, 100}, {2, 60}, {4, 60}};
    EXPECT_EQ(info.bestLength(), 60u);
    EXPECT_EQ(info.bestWithin(1).length, 100u);
    EXPECT_EQ(info.bestWithin(3).length, 60u);
    EXPECT_EQ(info.bestWithin(3).width, 2u);
    // Ties go to the narrower width.
    EXPECT_EQ(info.bestWithin(4).width, 2u);
}

TEST(CoarseScheduler, DefaultWidthSweepIsPowersOfTwo)
{
    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(8), leaf, CommMode::None);
    EXPECT_EQ(coarse.widthSweep(), (std::vector<unsigned>{1, 2, 4, 8}));
    CoarseScheduler coarse6(MultiSimdArch(6), leaf, CommMode::None);
    EXPECT_EQ(coarse6.widthSweep(), (std::vector<unsigned>{1, 2, 4, 6}));
}

TEST(CoarseScheduler, ExplicitWidthsValidated)
{
    LpfsScheduler leaf;
    CoarseScheduler::Options options;
    options.widths = {1, 5};
    EXPECT_THROW(
        CoarseScheduler(MultiSimdArch(4), leaf, CommMode::None, options),
        FatalError);
    // A sweep must end at k: its widest leaf slot carries the leaf's
    // full-machine bounds.
    options.widths = {1, 2};
    EXPECT_THROW(
        CoarseScheduler(MultiSimdArch(4), leaf, CommMode::None, options),
        FatalError);
}

TEST(CoarseScheduler, IndependentCallsRunInParallel)
{
    Program prog = twoStreamProgram();
    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(2), leaf, CommMode::None);
    ProgramSchedule sched = coarse.schedule(prog);
    // Each chain is 10 serial ops (width 1, length 10); they pack side
    // by side, then the CNOT adds 1: total 11, not 21.
    EXPECT_EQ(sched.totalCycles, 11u);
}

TEST(CoarseScheduler, WidthConstraintSerializes)
{
    Program prog = twoStreamProgram();
    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(1), leaf, CommMode::None);
    ProgramSchedule sched = coarse.schedule(prog);
    // k = 1: the two chains serialize: 10 + 10 + 1.
    EXPECT_EQ(sched.totalCycles, 21u);
}

TEST(CoarseScheduler, RepeatCountsMultiply)
{
    Program prog = twoStreamProgram(100);
    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(2), leaf, CommMode::None);
    ProgramSchedule sched = coarse.schedule(prog);
    EXPECT_EQ(sched.totalCycles, 100u * 10u + 1u);
}

TEST(CoarseScheduler, CallOverheadChargedWithComm)
{
    Program prog = twoStreamProgram();
    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(2), leaf, CommMode::Global);
    ProgramSchedule sched = coarse.schedule(prog);
    // chain leaf with comm: 10 steps + masked initial fetch = 10
    // cycles; +1 call overhead each; CNOT gate costs 1+4 at coarse
    // level. Parallel streams: max(11, 11) + 5 = 16.
    EXPECT_EQ(sched.totalCycles, 16u);
}

TEST(CoarseScheduler, LeafDimsMonotone)
{
    Program prog = twoStreamProgram();
    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(4), leaf, CommMode::None);
    ProgramSchedule sched = coarse.schedule(prog);
    const auto &info = sched.forModule(prog.findModule("chain"));
    ASSERT_TRUE(info.leaf);
    ASSERT_GE(info.dims.size(), 2u);
    for (size_t i = 1; i < info.dims.size(); ++i) {
        EXPECT_LT(info.dims[i - 1].width, info.dims[i].width);
        EXPECT_GE(info.dims[i - 1].length, info.dims[i].length);
    }
}

TEST(CoarseScheduler, FlexibleDimensionsPackWideWork)
{
    // Two "wide" leaves, each faster at width 2 but feasible at width
    // 1; with k=2 the packer should trade width for parallelism.
    Program prog;
    ModuleId wide = prog.addModule("wide");
    {
        Module &mod = prog.module(wide);
        QubitId x = mod.addParam("x");
        QubitId y = mod.addParam("y");
        // Two chains of *different* gate types so the schedule really
        // needs two regions to reach length 8.
        for (int i = 0; i < 8; ++i) {
            mod.addGate(i % 2 ? GateKind::T : GateKind::H, {x});
            mod.addGate(i % 2 ? GateKind::X : GateKind::S, {y});
        }
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        auto a = mod.addRegister("a", 2);
        auto b = mod.addRegister("b", 2);
        mod.addCall(wide, {a[0], a[1]});
        mod.addCall(wide, {b[0], b[1]});
    }
    prog.setEntry(top);

    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(2), leaf, CommMode::None);
    ProgramSchedule sched = coarse.schedule(prog);
    const auto &info = sched.forModule(wide);
    // wide at width 2 = 8 steps, at width 1 = 16 steps.
    EXPECT_EQ(info.bestWithin(2).length, 8u);
    EXPECT_EQ(info.bestWithin(1).length, 16u);
    // Two instances under k=2: either serialized at width 2 (8+8=16)
    // or parallel at width 1 (16): both give 16.
    EXPECT_EQ(sched.totalCycles, 16u);
}

TEST(CoarseScheduler, NestedHierarchy)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        for (int i = 0; i < 5; ++i)
            mod.addGate(GateKind::T, {q});
    }
    ModuleId mid = prog.addModule("mid");
    {
        Module &mod = prog.module(mid);
        QubitId q = mod.addParam("q");
        mod.addCall(leaf, {q}, 3);
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(mid, {q}, 2);
    }
    prog.setEntry(top);

    RcpScheduler leaf_sched;
    CoarseScheduler coarse(MultiSimdArch(2), leaf_sched, CommMode::None);
    ProgramSchedule sched = coarse.schedule(prog);
    EXPECT_EQ(sched.totalCycles, 2u * 3u * 5u);
    EXPECT_FALSE(sched.forModule(mid).leaf);
    EXPECT_TRUE(sched.forModule(leaf).leaf);
}

// The op checks run once per leaf, before its first width task: a leaf
// that still holds a Toffoli is refused on every thread count, cache or
// no cache.
TEST(CoarseScheduler, RejectsLeafWithToffoli)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &mod = prog.module(leaf);
        QubitId a = mod.addParam("a");
        QubitId b = mod.addParam("b");
        QubitId c = mod.addParam("c");
        mod.addGate(GateKind::H, {a});
        mod.addGate(GateKind::Toffoli, {a, b, c});
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        auto reg = mod.addRegister("q", 3);
        mod.addCall(leaf, {reg[0], reg[1], reg[2]});
    }
    prog.setEntry(top);

    LpfsScheduler leaf_sched;
    for (unsigned threads : {1u, 4u}) {
        for (bool cached : {false, true}) {
            SCOPED_TRACE(csprintf("threads=%u cache=%d", threads, cached));
            CoarseScheduler::Options options;
            options.numThreads = threads;
            if (cached)
                options.leafCache = std::make_shared<LeafScheduleCache>();
            CoarseScheduler coarse(MultiSimdArch(4), leaf_sched,
                                   CommMode::Global, options);
            EXPECT_THROW(coarse.schedule(prog), PanicError);
        }
    }
}

// Several leaves fail their check, each in every width task: whatever
// the threads or cache, schedule() throws the error of the first
// failing leaf in bottom-up order, as a sequential loop would.
TEST(CoarseScheduler, FailingLeavesThrowTheFirstOnesError)
{
    Program prog;
    std::vector<ModuleId> leaves;
    for (const char *name : {"ok0", "bad1", "ok2", "bad3", "bad4"}) {
        leaves.push_back(prog.addModule(name));
        Module &mod = prog.module(leaves.back());
        QubitId a = mod.addParam("a");
        QubitId b = mod.addParam("b");
        QubitId c = mod.addParam("c");
        mod.addGate(GateKind::H, {a});
        if (name[0] == 'b')
            mod.addGate(GateKind::Toffoli, {a, b, c});
        else
            mod.addGate(GateKind::CNOT, {b, c});
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        auto reg = mod.addRegister("q", 3);
        for (ModuleId leaf : leaves)
            mod.addCall(leaf, {reg[0], reg[1], reg[2]});
    }
    prog.setEntry(top);

    std::string first_bad;
    for (ModuleId id : prog.bottomUpOrder())
        if (first_bad.empty() && prog.module(id).name().starts_with("bad"))
            first_bad = prog.module(id).name();
    ASSERT_FALSE(first_bad.empty());

    LpfsScheduler leaf_sched;
    for (unsigned threads : {1u, 4u}) {
        for (bool cached : {false, true}) {
            SCOPED_TRACE(csprintf("threads=%u cache=%d", threads, cached));
            CoarseScheduler::Options options;
            options.numThreads = threads;
            if (cached)
                options.leafCache = std::make_shared<LeafScheduleCache>();
            CoarseScheduler coarse(MultiSimdArch(4), leaf_sched,
                                   CommMode::Global, options);
            try {
                coarse.schedule(prog);
                ADD_FAILURE() << "no leaf was rejected";
            } catch (const PanicError &error) {
                EXPECT_NE(std::string(error.what())
                              .find("module " + first_bad + " contains"),
                          std::string::npos)
                    << error.what();
            }
        }
    }
}

TEST(ProgramSchedule, UnanalyzedModulePanics)
{
    ProgramSchedule sched;
    sched.modules.resize(1);
    EXPECT_THROW(sched.forModule(0), PanicError);
}

} // namespace
