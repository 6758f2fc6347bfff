/**
 * @file
 * Golden schedule-dump equivalence suite: the committed fixtures under
 * tests/golden/ were captured from the nested-vector schedule
 * representation the paper describes literally (one Timestep struct per
 * step owning k RegionSlot vectors). Any change to the schedule data
 * model — such as the compact structure-of-arrays ScheduleBuffer — must
 * reproduce these dumps byte-for-byte: the representation may change,
 * the schedule semantics may not.
 *
 * Regenerating fixtures (only when schedule *semantics* change on
 * purpose): MSQ_UPDATE_GOLDEN=1 ./tests/test_golden_dumps
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/toolflow.hh"
#include "sched/comm.hh"
#include "sched/leaf_scheduler.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "workloads/workloads.hh"

#include "schedule_printer.hh"

namespace {

using namespace msq;

/** Leaves dumped per workload; keeps the fixtures reviewable. */
constexpr size_t maxLeaves = 6;

/** Timesteps dumped per schedule (the printer's truncation marker
 * still encodes the full step count, so length changes are caught). */
constexpr uint64_t maxSteps = 48;

std::string
goldenPath(const std::string &name)
{
    return std::string(MSQ_SOURCE_DIR) + "/tests/golden/" + name + ".txt";
}

Program
prepare(const std::string &short_name)
{
    return Toolflow::lowerWorkload(
        workloads::findWorkload(workloads::scaledParams(), short_name));
}

/**
 * Dump the first ::maxLeaves scheduled leaves of @p prog under
 * @p scheduler: timelines with movement annotation plus the aggregate
 * counters that summarize the parts the truncated timeline omits.
 */
std::string
dumpWorkload(const Program &prog, const LeafScheduler &scheduler,
             const MultiSimdArch &arch, CommMode mode)
{
    std::ostringstream os;
    os << "# scheduler=" << scheduler.name() << " arch="
       << arch.describe() << " mode=" << commModeName(mode) << "\n";
    CommunicationAnalyzer analyzer(arch, mode);
    size_t dumped = 0;
    for (ModuleId id : prog.reachableModules()) {
        const Module &mod = prog.module(id);
        if (!mod.isLeaf() || mod.numOps() == 0)
            continue;
        if (dumped++ == maxLeaves)
            break;
        LeafSchedule sched = scheduler.schedule(mod, arch);
        CommStats stats = analyzer.annotate(sched);
        unsigned width = 0;
        for (TimestepView step : sched.steps())
            width = std::max(width, step.activeRegions());
        os << "== " << mod.name() << " ops=" << mod.numOps()
           << " qubits=" << mod.numQubits()
           << " steps=" << sched.computeTimesteps()
           << " width=" << width
           << " cycles=" << stats.totalCycles
           << " teleports=" << stats.teleportMoves
           << " blocking=" << stats.blockingTeleports
           << " local=" << stats.localMoves
           << " peak=" << stats.peakBlockingMovesPerStep;
        if (arch.topology.multiCore())
            os << " intercore=" << stats.interCoreTeleports;
        os << "\n";
        TimelinePrintOptions options;
        options.maxSteps = maxSteps;
        options.showMoves = true;
        printTimeline(os, sched, options);
    }
    return os.str();
}

void
checkGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    const char *update = std::getenv("MSQ_UPDATE_GOLDEN");
    if (update && *update && std::string(update) != "0") {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden fixture " << path
        << " (regenerate with MSQ_UPDATE_GOLDEN=1)";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string expected = buffer.str();
    // Byte-for-byte: report the first diverging line for diagnosis.
    if (actual != expected) {
        std::istringstream a(actual), e(expected);
        std::string la, le;
        size_t line = 0;
        while (true) {
            ++line;
            bool more_a = static_cast<bool>(std::getline(a, la));
            bool more_e = static_cast<bool>(std::getline(e, le));
            if (!more_a && !more_e)
                break;
            ASSERT_EQ(le, la) << name << ": first divergence at line "
                              << line;
        }
        FAIL() << name << ": dumps differ in length only";
    }
}

class GoldenDumps : public ::testing::TestWithParam<const char *>
{};

TEST_P(GoldenDumps, RcpGlobal)
{
    Program prog = prepare(GetParam());
    RcpScheduler rcp;
    checkGolden(std::string(GetParam()) + "_rcp_k4",
                dumpWorkload(prog, rcp, MultiSimdArch(4),
                             CommMode::Global));
}

TEST_P(GoldenDumps, LpfsGlobal)
{
    Program prog = prepare(GetParam());
    LpfsScheduler lpfs;
    checkGolden(std::string(GetParam()) + "_lpfs_k4",
                dumpWorkload(prog, lpfs, MultiSimdArch(4),
                             CommMode::Global));
}

TEST_P(GoldenDumps, SequentialGlobal)
{
    // The speedup baseline ("over sequential execution"): one op per
    // step. Locks down the denominator of every reported speedup.
    Program prog = prepare(GetParam());
    SequentialScheduler sequential;
    checkGolden(std::string(GetParam()) + "_sequential_k4",
                dumpWorkload(prog, sequential, MultiSimdArch(4),
                             CommMode::Global));
}

TEST_P(GoldenDumps, LpfsLocalMem)
{
    // Exercises the scratchpad moves (ballistic, r<n>.local) too.
    Program prog = prepare(GetParam());
    LpfsScheduler lpfs;
    checkGolden(std::string(GetParam()) + "_lpfs_k4_local",
                dumpWorkload(prog, lpfs, MultiSimdArch(4, unbounded, 2),
                             CommMode::GlobalWithLocalMem));
}

/**
 * Multi-core equivalence fixtures (DESIGN.md §16): one workload dumped
 * on a ring, a mesh and an all-to-all 4-core machine. These lock down
 * the qubit mapping, the link routing and the inter-core teleport
 * accounting the same way the flat fixtures lock down the schedule
 * semantics.
 */
TEST(GoldenDumpsMultiCore, ShapesLockMappingAndRouting)
{
    struct Fixture
    {
        const char *name;
        const char *spec;
    };
    const Fixture fixtures[] = {
        {"grovers_lpfs_ring4",
         "cores=4,k=1,shape=ring,link-bw=1,link-lat=3"},
        {"grovers_lpfs_mesh4",
         "cores=4,k=1,shape=mesh,link-bw=1,link-lat=3"},
        {"grovers_lpfs_all4",
         "cores=4,k=1,shape=all-to-all,link-bw=1,link-lat=3"},
    };
    Program prog = prepare("grovers");
    LpfsScheduler lpfs;
    for (const Fixture &fixture : fixtures) {
        MultiSimdArch arch;
        std::string error;
        ASSERT_TRUE(parseTopologySpec(fixture.spec, arch, error))
            << error;
        checkGolden(fixture.name,
                    dumpWorkload(prog, lpfs, arch, CommMode::Global));
    }
}

/**
 * The degenerate one-core topology must reproduce the flat machine's
 * dump byte-for-byte — the core refactor invariant, checked against the
 * same fixture the flat run uses.
 */
TEST(GoldenDumpsMultiCore, OneCoreTopologyMatchesFlatFixture)
{
    Program prog = prepare("grovers");
    LpfsScheduler lpfs;
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=1,k=4", arch, error)) << error;
    checkGolden("grovers_lpfs_k4",
                dumpWorkload(prog, lpfs, arch, CommMode::Global));
}

INSTANTIATE_TEST_SUITE_P(Workloads, GoldenDumps,
                         ::testing::Values("grovers", "tfp", "gse"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
