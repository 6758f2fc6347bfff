/**
 * @file
 * End-to-end toolflow integration tests: full pipeline runs on built and
 * parsed programs, scheduler comparisons, communication-mode orderings,
 * and the paper's qualitative claims at toy scale.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/hash.hh"
#include "support/logging.hh"

#include "analysis/resource_estimator.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "ir/dag.hh"
#include "workloads/workloads.hh"

#ifndef MSQ_SOURCE_DIR
#define MSQ_SOURCE_DIR "."
#endif

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

/** One program the toolflow compiles: a label, a builder and the
 * rotation preset its daemon request would get. */
struct NamedProgram
{
    std::string label;
    std::function<Program()> build;
    RotationDecomposerPass::Config rotations;
};

/** Every workload at tiny and scaled parameters, then the example
 * programs. */
std::vector<NamedProgram>
everyProgram()
{
    std::vector<NamedProgram> programs;
    for (const auto &params :
         {std::pair{"tiny", workloads::tinyParams()},
          std::pair{"scaled", workloads::scaledParams()}}) {
        for (const auto &spec : params.second)
            programs.push_back(
                {std::string(params.first) + "/" + spec.shortName,
                 spec.build, Toolflow::rotationPresetFor(spec.shortName)});
    }
    for (const char *file : {"adder4", "grover3", "qft8", "teleport"}) {
        const std::string path = std::string(MSQ_SOURCE_DIR) +
                                 "/examples/programs/" + file + ".scaffold";
        programs.push_back(
            {file, [path] { return parseScaffoldFile(path); }, {}});
    }
    return programs;
}

/**
 * The qubit names of every module of every lowered program, pinned by
 * the FNV-1a digest of "module\nqubit\n...". Building names registers
 * "base[i]" and flattening names each inlined ancilla
 * "callee.site.name"; any change to either spelling moves a digest.
 */
TEST(Toolflow, LoweredQubitNamesMatchPinnedDigests)
{
    const std::vector<std::pair<std::string, uint64_t>> pinned = {
        {"tiny/bf", 0xcc0f8c2bdf871d17ull},
        {"tiny/bwt", 0x8c82c47caf675afeull},
        {"tiny/cn", 0xf8d27bf1d23ef672ull},
        {"tiny/grovers", 0xb5c692aa535224b5ull},
        {"tiny/gse", 0x4ffd00254e9d7de0ull},
        {"tiny/sha1", 0x65391bc394dc5fddull},
        {"tiny/shors", 0x445c30b47d9e35c0ull},
        {"tiny/tfp", 0x66210a65832306afull},
        {"scaled/bf", 0xcc0f8c2bdf871d17ull},
        {"scaled/bwt", 0x2d476f9a61abaa88ull},
        {"scaled/cn", 0xbb9f904eebcd858dull},
        {"scaled/grovers", 0xeb23ee1e52ff7190ull},
        {"scaled/gse", 0x6c4ed2a0e3e9e824ull},
        {"scaled/sha1", 0x6c97512a57d93a79ull},
        {"scaled/shors", 0xfea4b8b150b6633eull},
        {"scaled/tfp", 0xe21173d498845fa2ull},
        {"adder4", 0x655b9fc61c196da6ull},
        {"grover3", 0x0433d8b8cb281fc4ull},
        {"qft8", 0x4421b643c283e4abull},
        {"teleport", 0x529486241e8dc952ull},
    };
    const std::vector<NamedProgram> programs = everyProgram();
    ASSERT_EQ(programs.size(), pinned.size());
    for (size_t i = 0; i < programs.size(); ++i) {
        ToolflowConfig config;
        config.rotations = programs[i].rotations;
        Program prog = programs[i].build();
        Toolflow(config).lower(prog);
        std::string names;
        for (ModuleId id = 0; id < prog.numModules(); ++id) {
            const Module &mod = prog.module(id);
            names += mod.name() + "\n";
            for (QubitId q = 0; q < mod.numQubits(); ++q)
                names += mod.qubitName(q) + "\n";
        }
        EXPECT_EQ(programs[i].label, pinned[i].first);
        EXPECT_EQ(fnv1a64(names.data(), names.size()), pinned[i].second)
            << programs[i].label << std::hex << " 0x"
            << fnv1a64(names.data(), names.size());
    }
}

/**
 * run() takes each leaf's critical path from the bounds memoized with
 * its widest schedule. Those must equal the unit-weight sweep on every
 * leaf, under both heuristic schedulers, so the reported critical path
 * is the estimator's own.
 */
TEST(Toolflow, LeafBoundsCriticalPathIsTheUnitSweep)
{
    for (const NamedProgram &program : everyProgram()) {
        for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            ToolflowConfig config;
            config.scheduler = kind;
            config.rotations = program.rotations;
            Program prog = program.build();
            const ToolflowResult result = Toolflow(config).run(prog);
            const ResourceEstimator swept(prog);
            size_t leaves = 0;
            for (ModuleId id : swept.analyzedModules()) {
                const Module &mod = prog.module(id);
                if (!mod.isLeaf())
                    continue;
                ++leaves;
                EXPECT_EQ(result.schedule.forModule(id)
                              .result->bounds.criticalPath,
                          criticalPathLength(mod))
                    << program.label << " " << schedulerKindName(kind)
                    << " " << mod.name();
            }
            EXPECT_GT(leaves, 0u) << program.label;
            EXPECT_EQ(result.criticalPath, swept.programCriticalPath())
                << program.label << " " << schedulerKindName(kind);
        }
    }
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
