/**
 * @file
 * End-to-end toolflow integration tests: full pipeline runs on built and
 * parsed programs, scheduler comparisons, communication-mode orderings,
 * and the paper's qualitative claims at toy scale.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"

#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

/** A mixed program with rotations, composites and hierarchy. */
Program
mixedProgram()
{
    return parseScaffold(R"(
        module kernel(qbit a, qbit b, qbit c) {
            Toffoli(a, b, c);
            Rz(c, 0.77);
            CNOT(a, b);
        }
        module main() {
            qbit q[3];
            qbit r[3];
            H(q[0]);
            repeat 20 kernel(q[0], q[1], q[2]);
            repeat 20 kernel(r[0], r[1], r[2]);
            MeasZ(q[0]);
        }
    )");
}

ToolflowConfig
baseConfig(SchedulerKind kind, CommMode mode)
{
    ToolflowConfig config;
    config.scheduler = kind;
    config.commMode = mode;
    config.arch = MultiSimdArch(4, unbounded,
                                mode == CommMode::GlobalWithLocalMem
                                    ? unbounded
                                    : 0);
    config.rotations.sequenceLength = 50;
    return config;
}

TEST(Toolflow, RunsEndToEnd)
{
    Program prog = mixedProgram();
    ToolflowResult result =
        Toolflow(baseConfig(SchedulerKind::Lpfs, CommMode::Global))
            .run(prog);
    EXPECT_GT(result.totalGates, 1000u);
    EXPECT_GT(result.criticalPath, 0u);
    EXPECT_LE(result.criticalPath, result.totalGates);
    EXPECT_GT(result.scheduledCycles, 0u);
    EXPECT_GT(result.qubits, 5u);
    EXPECT_GT(result.speedupVsNaive, 1.0);
    EXPECT_DOUBLE_EQ(result.speedupVsNaive,
                     5.0 * result.speedupVsSequential);
}

TEST(Toolflow, NoCommBeatsOrMatchesComm)
{
    Program p1 = mixedProgram();
    Program p2 = mixedProgram();
    auto free_comm =
        Toolflow(baseConfig(SchedulerKind::Lpfs, CommMode::None)).run(p1);
    auto with_comm =
        Toolflow(baseConfig(SchedulerKind::Lpfs, CommMode::Global))
            .run(p2);
    EXPECT_LE(free_comm.scheduledCycles, with_comm.scheduledCycles);
}

TEST(Toolflow, LocalMemoryNeverHurts)
{
    for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
        Program p1 = mixedProgram();
        Program p2 = mixedProgram();
        auto global =
            Toolflow(baseConfig(kind, CommMode::Global)).run(p1);
        auto local =
            Toolflow(baseConfig(kind, CommMode::GlobalWithLocalMem))
                .run(p2);
        EXPECT_LE(local.scheduledCycles, global.scheduledCycles)
            << schedulerKindName(kind);
    }
}

TEST(Toolflow, ParallelSchedulersBeatSequentialBaseline)
{
    Program p1 = mixedProgram();
    Program p2 = mixedProgram();
    auto seq =
        Toolflow(baseConfig(SchedulerKind::Sequential, CommMode::None))
            .run(p1);
    auto lpfs =
        Toolflow(baseConfig(SchedulerKind::Lpfs, CommMode::None)).run(p2);
    EXPECT_LT(lpfs.scheduledCycles, seq.scheduledCycles);
    // No schedule can beat the critical path under free communication.
    EXPECT_GE(lpfs.scheduledCycles, lpfs.criticalPath);
}

TEST(Toolflow, SchedulerNames)
{
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Sequential),
                 "sequential");
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Rcp), "rcp");
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Lpfs), "lpfs");
}

TEST(Toolflow, EmptyProgramYieldsZeroSpeedups)
{
    // A program whose entry schedules zero cycles must not divide by
    // zero when computing the speedup metrics: both stay 0.0.
    for (SchedulerKind kind : {SchedulerKind::Sequential,
                               SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
        Program prog = parseScaffold(R"(
            module main() {
                qbit q[2];
            }
        )");
        ToolflowResult result =
            Toolflow(baseConfig(kind, CommMode::Global)).run(prog);
        EXPECT_EQ(result.scheduledCycles, 0u);
        EXPECT_EQ(result.speedupVsSequential, 0.0);
        EXPECT_EQ(result.speedupVsNaive, 0.0);
    }
}

TEST(Toolflow, RotationPresets)
{
    EXPECT_TRUE(Toolflow::rotationPresetFor("shors").outline);
    EXPECT_FALSE(Toolflow::rotationPresetFor("gse").outline);
}

TEST(Toolflow, MakeSchedulerFactories)
{
    EXPECT_STREQ(
        Toolflow::makeScheduler(SchedulerKind::Sequential)->name(),
        "sequential");
    EXPECT_STREQ(Toolflow::makeScheduler(SchedulerKind::Rcp)->name(),
                 "rcp");
    EXPECT_STREQ(Toolflow::makeScheduler(SchedulerKind::Lpfs)->name(),
                 "lpfs");
}

TEST(Toolflow, GseFavorsLpfsOverRcp)
{
    // Paper §5.2: GSE's in-place chains give LPFS its largest edge.
    Program p1 = workloads::buildGse(6, 4);
    Program p2 = workloads::buildGse(6, 4);
    auto cfg_rcp = baseConfig(SchedulerKind::Rcp, CommMode::Global);
    auto cfg_lpfs = baseConfig(SchedulerKind::Lpfs, CommMode::Global);
    auto rcp = Toolflow(cfg_rcp).run(p1);
    auto lpfs = Toolflow(cfg_lpfs).run(p2);
    EXPECT_LT(lpfs.scheduledCycles, rcp.scheduledCycles);
}

TEST(Toolflow, WorksOnEveryScaledWorkload)
{
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = spec.build();
        ToolflowConfig config =
            baseConfig(SchedulerKind::Lpfs, CommMode::Global);
        config.rotations = Toolflow::rotationPresetFor(spec.shortName);
        config.rotations.sequenceLength = 40; // keep tests fast
        ToolflowResult result = Toolflow(config).run(prog);
        EXPECT_GT(result.speedupVsNaive, 1.0) << spec.name;
        EXPECT_GE(result.scheduledCycles, result.criticalPath)
            << spec.name;
    }
}

TEST(Toolflow, LoweredGatesKeepOperandsInline)
{
    // Every gate's operands fit the inline list; only calls with more
    // arguments than the widest gate own a heap block.
    size_t all_wide_calls = 0;
    for (const auto &spec : workloads::scaledParams()) {
        const Program prog = Toolflow::lowerWorkload(spec);
        size_t heap_lists = 0, wide_calls = 0;
        for (ModuleId id = 0; id < prog.numModules(); ++id) {
            for (const Operation &op : prog.module(id).ops()) {
                heap_lists += op.operands.onHeap();
                if (op.isCall())
                    wide_calls += op.operands.size() > maxGateArity;
                else
                    EXPECT_FALSE(op.operands.onHeap()) << spec.name;
            }
        }
        EXPECT_EQ(heap_lists, wide_calls) << spec.name;
        all_wide_calls += wide_calls;
    }
    // bwt 1, cn 1, gse 6, sha1 2, shors 49: the heap path is exercised,
    // by 59 of the ~210K lowered operations.
    EXPECT_EQ(all_wide_calls, 59u);
}

TEST(Toolflow, MoreRegionsNeverHurt)
{
    // Monotonicity property: on every communication mode, growing k can
    // only shorten (or preserve) the schedule.
    for (const char *name : {"gse", "tfp", "grovers"}) {
        auto spec = workloads::findWorkload(workloads::scaledParams(),
                                            name);
        for (CommMode mode : {CommMode::None, CommMode::Global}) {
            uint64_t previous = ~uint64_t{0};
            for (unsigned k : {1u, 2u, 4u}) {
                Program prog = spec.build();
                ToolflowConfig config;
                config.scheduler = SchedulerKind::Lpfs;
                config.commMode = mode;
                config.arch = MultiSimdArch(k);
                config.rotations =
                    Toolflow::rotationPresetFor(spec.shortName);
                config.rotations.sequenceLength = 40;
                ToolflowResult result = Toolflow(config).run(prog);
                EXPECT_LE(result.scheduledCycles, previous)
                    << name << " " << commModeName(mode) << " k=" << k;
                previous = result.scheduledCycles;
            }
        }
    }
}

TEST(Toolflow, EprBandwidthMonotone)
{
    auto spec = workloads::findWorkload(workloads::scaledParams(), "tfp");
    uint64_t previous = ~uint64_t{0};
    for (uint64_t bandwidth : {uint64_t{1}, uint64_t{4}, unbounded}) {
        Program prog = spec.build();
        ToolflowConfig config;
        config.scheduler = SchedulerKind::Lpfs;
        config.commMode = CommMode::Global;
        config.arch = MultiSimdArch(4).withEprBandwidth(bandwidth);
        ToolflowResult result = Toolflow(config).run(prog);
        EXPECT_LE(result.scheduledCycles, previous);
        previous = result.scheduledCycles;
    }
}

} // namespace
