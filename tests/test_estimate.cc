/**
 * @file
 * Tests for the schedule-summary static analysis
 * (analysis/schedule_summary.hh) and the E001-E006 estimate exactness
 * checker (verify/estimate_checker.hh).
 *
 * The analysis claims *exact* composition, so every test here compares
 * against independently computed ground truth: the streaming leaf fold
 * against the CommunicationAnalyzer, the repeat algebra against
 * hand-computed closed forms and against full workloads, and the
 * saturation contract against deliberately overflowing repeat counts.
 */

#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <string>

#include "analysis/bounds.hh"
#include "analysis/qubit_mapping.hh"
#include "analysis/resource_estimator.hh"
#include "analysis/schedule_summary.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "ir/dag.hh"
#include "sched/coarse.hh"
#include "sched/comm.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "support/diagnostic.hh"
#include "support/telemetry.hh"
#include "verify/estimate_checker.hh"
#include "workloads/workloads.hh"

#include "expect_summary.hh"

#ifndef MSQ_SOURCE_DIR
#define MSQ_SOURCE_DIR "."
#endif

namespace {

using namespace msq;

bool
hasCode(const DiagnosticEngine &diags, DiagCode code)
{
    for (const Diagnostic &d : diags.diagnostics())
        if (d.code == code)
            return true;
    return false;
}

/** Fill @p mod with gates whose schedule exercises teleports: chained
 * CNOTs across enough qubits that k=2 regions must exchange operands. */
void
addCommHeavyGates(Module &mod, unsigned qubits, unsigned rounds)
{
    std::vector<QubitId> qs;
    for (unsigned i = 0; i < qubits; ++i)
        qs.push_back(mod.addLocal("q" + std::to_string(i)));
    for (unsigned r = 0; r < rounds; ++r)
        for (unsigned i = 0; i + 1 < qubits; ++i)
            mod.addGate(GateKind::CNOT, {qs[i], qs[i + 1]});
}

/** A standalone leaf of addCommHeavyGates. */
Module
commHeavyLeaf(unsigned qubits, unsigned rounds)
{
    Module mod("commleaf");
    addCommHeavyGates(mod, qubits, rounds);
    return mod;
}

/** Fold vs the analyzer's in-pass summary, whole summary, plus the
 * CommStats projection of that summary, for one (scheduler, mode).
 * A nonzero @p width schedules on that many regions and annotates on
 * the full machine, as a coarse width task does. */
void
expectFoldMatchesAnnotator(const Module &mod, const LeafScheduler &sched,
                           const MultiSimdArch &arch, CommMode mode,
                           unsigned width = 0)
{
    MultiSimdArch sub = arch;
    if (width != 0)
        sub.k = width;
    LeafSchedule leaf = sched.schedule(mod, sub);
    CommunicationAnalyzer comm(arch, mode);
    ResourceSummary annotated;
    comm.annotate(leaf, annotated);
    const CommStats ground = comm.annotate(leaf);
    ResourceSummary fold = summarizeLeafSchedule(leaf, arch);

    test::expectSameSummary(fold, annotated);

    EXPECT_EQ(fold.serialCycles, ground.totalCycles);
    EXPECT_EQ(fold.teleportMoves, ground.teleportMoves);
    EXPECT_EQ(fold.blockingTeleports, ground.blockingTeleports);
    EXPECT_EQ(fold.interCoreTeleports, ground.interCoreTeleports);
    EXPECT_EQ(fold.localMoves, ground.localMoves);
    EXPECT_EQ(fold.stepsWithBlockingMove, ground.stepsWithBlockingMove);
    EXPECT_EQ(fold.stepsWithOnlyLocalMoves,
              ground.stepsWithOnlyLocalMoves);
    EXPECT_EQ(fold.peakBlockingMovesPerStep,
              ground.peakBlockingMovesPerStep);
    if (mode == CommMode::None) {
        // CommStats keeps its occupancy telemetry at 0 when movement
        // is not modelled; the summary still carries the profile.
        EXPECT_EQ(ground.activeRegionSteps, 0u);
        EXPECT_EQ(ground.operandSlots, 0u);
        EXPECT_EQ(ground.peakRegionOccupancy, 0u);
        EXPECT_EQ(fold.teleportMoves + fold.localMoves, 0u);
        EXPECT_GT(fold.activeRegionSteps, 0u);
    } else {
        EXPECT_EQ(fold.activeRegionSteps, ground.activeRegionSteps);
        EXPECT_EQ(fold.operandTouches, ground.operandSlots);
        EXPECT_EQ(fold.peakRegionOccupancy, ground.peakRegionOccupancy);
    }
    EXPECT_EQ(fold.gateOps, leaf.scheduledOps());
    EXPECT_EQ(fold.occupancySteps(), leaf.computeTimesteps());
    EXPECT_EQ(fold.eprPairs(), ground.teleportMoves);
    EXPECT_FALSE(fold.saturated());
}

// ---------------------------------------------------------------------
// The streaming leaf fold vs the CommunicationAnalyzer (E001's claim).
// ---------------------------------------------------------------------

TEST(LeafFold, MatchesAnnotatorGlobalMode)
{
    Module mod = commHeavyLeaf(8, 4);
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    MultiSimdArch arch(2);
    expectFoldMatchesAnnotator(mod, rcp, arch, CommMode::Global);
    expectFoldMatchesAnnotator(mod, lpfs, arch, CommMode::Global);
}

TEST(LeafFold, MatchesAnnotatorLocalMemMode)
{
    Module mod = commHeavyLeaf(8, 4);
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    MultiSimdArch arch(2, unbounded, /*localMemCapacity=*/4);
    expectFoldMatchesAnnotator(mod, rcp, arch,
                               CommMode::GlobalWithLocalMem);
    expectFoldMatchesAnnotator(mod, lpfs, arch,
                               CommMode::GlobalWithLocalMem);
}

TEST(LeafFold, MatchesAnnotatorUnderFiniteEprBandwidth)
{
    Module mod = commHeavyLeaf(10, 3);
    RcpScheduler rcp;
    MultiSimdArch arch(4);
    arch.eprBandwidth = 1;
    expectFoldMatchesAnnotator(mod, rcp, arch, CommMode::Global);
}

TEST(LeafFold, MatchesAnnotatorWithoutMovement)
{
    Module mod = commHeavyLeaf(8, 4);
    SequentialScheduler seq;
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    MultiSimdArch arch(2);
    expectFoldMatchesAnnotator(mod, seq, arch, CommMode::None);
    expectFoldMatchesAnnotator(mod, rcp, arch, CommMode::None);
    expectFoldMatchesAnnotator(mod, lpfs, arch, CommMode::None);
}

TEST(LeafFold, MatchesAnnotatorUnderSequentialScheduler)
{
    Module mod = commHeavyLeaf(8, 4);
    SequentialScheduler seq;
    MultiSimdArch arch(2, unbounded, /*localMemCapacity=*/4);
    expectFoldMatchesAnnotator(mod, seq, arch, CommMode::Global);
    expectFoldMatchesAnnotator(mod, seq, arch,
                               CommMode::GlobalWithLocalMem);
}

TEST(LeafFold, MatchesAnnotatorOnLinkLimitedRing)
{
    Module mod = commHeavyLeaf(12, 4);
    SequentialScheduler seq;
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    MultiSimdArch arch(1);
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=4,k=2,link-bw=1", arch, error))
        << error;
    for (CommMode mode : {CommMode::None, CommMode::Global}) {
        expectFoldMatchesAnnotator(mod, seq, arch, mode);
        expectFoldMatchesAnnotator(mod, rcp, arch, mode);
        expectFoldMatchesAnnotator(mod, lpfs, arch, mode);
    }
}

TEST(LeafFold, MatchesAnnotatorOnEveryTinyWorkloadLeaf)
{
    // A flat k=4 machine with scratchpads, and a link-limited 2-core
    // ring, each under all three movement modes.
    MultiSimdArch flat(4, unbounded, /*localMemCapacity=*/2);
    MultiSimdArch ring(1);
    std::string error;
    ASSERT_TRUE(parseTopologySpec(
        "cores=2,k=2,shape=ring,link-bw=1,local-mem=2", ring, error))
        << error;
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    size_t checked = 0;
    for (const workloads::WorkloadSpec &spec : workloads::tinyParams()) {
        const Program prog = Toolflow::lowerWorkload(spec);
        for (ModuleId id : prog.reachableModules()) {
            const Module &mod = prog.module(id);
            if (!mod.isLeaf())
                continue;
            for (const MultiSimdArch *arch : {&flat, &ring}) {
                for (const LeafScheduler *sched :
                     {static_cast<const LeafScheduler *>(&rcp),
                      static_cast<const LeafScheduler *>(&lpfs)}) {
                    for (CommMode mode :
                         {CommMode::None, CommMode::Global,
                          CommMode::GlobalWithLocalMem}) {
                        const CoarseScheduler coarse(*arch, *sched, mode);
                        for (unsigned w : coarse.widthSweep()) {
                            SCOPED_TRACE(spec.shortName + "/" + mod.name() +
                                         " " + sched->fingerprint() +
                                         " w=" + std::to_string(w) +
                                         " cores=" +
                                         std::to_string(
                                             arch->topology.cores));
                            expectFoldMatchesAnnotator(mod, *sched, *arch,
                                                       mode, w);
                            ++checked;
                        }
                    }
                }
            }
        }
    }
    // 8 workloads, at least one leaf each, 2 machines x 2 schedulers x
    // 3 modes x 3 widths.
    EXPECT_GE(checked, 8u * 2 * 2 * 3 * 3);
}

TEST(LeafFold, EmptyLeafFoldsToZero)
{
    Module mod("empty");
    mod.addLocal("q");
    RcpScheduler rcp;
    MultiSimdArch arch(2);
    LeafSchedule leaf = rcp.schedule(mod, arch);
    ResourceSummary fold = summarizeLeafSchedule(leaf, arch);
    EXPECT_EQ(fold.gateOps, 0u);
    EXPECT_EQ(fold.serialCycles, 0u);
    EXPECT_EQ(fold.commCycles, 0u);
    EXPECT_EQ(fold.teleportMoves, 0u);
    EXPECT_EQ(fold.occupancySteps(), 0u);
    EXPECT_EQ(fold.peakActiveRegions, 0u);
    EXPECT_FALSE(fold.saturated());
}

/**
 * The annotate walk with its counting sink (what a coarse width task
 * runs) folds the same ResourceSummary as with its recording sink and
 * as the reference fold of the recorded schedule, field for field, and
 * leaves the schedule move-free. Every leaf of the eight tiny and
 * scaled workloads and of the example programs, at every sweep width,
 * under RCP and LPFS; one instance per (machine, movement mode).
 */
struct WalkMachine
{
    const char *label;
    const char *topology; ///< "" for the flat machine
    CommMode mode;
};

/** Print only the label: gtest would print the topology's address. */
void PrintTo(const WalkMachine &m, std::ostream *os) { *os << m.label; }

class CountingWalk : public ::testing::TestWithParam<WalkMachine>
{};

TEST_P(CountingWalk, MatchesRecordingWalkOnEveryLeaf)
{
    const auto &[label, topology, mode] = GetParam();
    SCOPED_TRACE(label);
    MultiSimdArch arch(4);
    std::string error;
    if (*topology) {
        ASSERT_TRUE(parseTopologySpec(topology, arch, error)) << error;
    }
    if (mode == CommMode::GlobalWithLocalMem)
        arch.localMemCapacity = 2;

    std::vector<std::pair<std::string, Program>> programs;
    for (const auto &specs :
         {workloads::tinyParams(), workloads::scaledParams()})
        for (const workloads::WorkloadSpec &spec : specs)
            programs.emplace_back(spec.shortName,
                                  Toolflow::lowerWorkload(spec));
    for (const char *name : {"adder4", "grover3", "qft8", "teleport"}) {
        Program prog = parseScaffoldFile(std::string(MSQ_SOURCE_DIR) +
                                         "/examples/programs/" + name +
                                         ".scaffold");
        Toolflow(ToolflowConfig{}).lower(prog);
        programs.emplace_back(name, std::move(prog));
    }

    RcpScheduler rcp;
    LpfsScheduler lpfs;
    const CommunicationAnalyzer comm(arch, mode);
    size_t checked = 0;
    for (const auto &[name, prog] : programs) {
        for (ModuleId id : prog.reachableModules()) {
            const Module &mod = prog.module(id);
            if (!mod.isLeaf())
                continue;
            const DepDag dag = DepDag::build(mod);
            const LeafBoundProfile bounds(mod, dag);
            std::vector<unsigned> home;
            if (arch.topology.multiCore())
                home = computeQubitMapping(mod, arch.topology);
            for (const LeafScheduler *scheduler :
                 {static_cast<const LeafScheduler *>(&rcp),
                  static_cast<const LeafScheduler *>(&lpfs)}) {
                const CoarseScheduler coarse(arch, *scheduler, mode);
                for (unsigned w : coarse.widthSweep()) {
                    SCOPED_TRACE(name + "/" + mod.name() + " " +
                                 scheduler->name() +
                                 " w=" + std::to_string(w));
                    MultiSimdArch sub = arch;
                    sub.k = w;
                    ScheduleAttempt attempt;
                    const LeafSchedule sched = scheduler->scheduleWithAttempt(
                        mod, dag, sub, attempt, home);
                    ResourceSummary counted;
                    comm.countMoves(sched, counted, home);
                    EXPECT_TRUE(sched.buffer().moves.empty());

                    LeafSchedule recorded = sched;
                    ResourceSummary annotated;
                    comm.annotate(recorded, annotated, home);
                    test::expectSameSummary(counted, annotated);
                    test::expectSameSummary(
                        counted, summarizeLeafSchedule(recorded, arch));

                    // The width task itself takes the counting walk.
                    test::expectSameSummary(
                        counted, scheduleLeafWidth(*scheduler, mod, dag,
                                                   bounds, home, arch,
                                                   mode, w)
                                     ->summary);
                    ++checked;
                }
            }
        }
    }
    // 8 + 8 workloads and 4 examples, at least one leaf each, two
    // schedulers, three or more widths.
    EXPECT_GE(checked, (8u + 8 + 4) * 2 * 3);
}

constexpr const char *ring4 = "cores=4,k=2,link-bw=1";

INSTANTIATE_TEST_SUITE_P(
    Machines, CountingWalk,
    ::testing::Values(
        WalkMachine{"Flat_None", "", CommMode::None},
        WalkMachine{"Flat_Global", "", CommMode::Global},
        WalkMachine{"Flat_LocalMem", "", CommMode::GlobalWithLocalMem},
        WalkMachine{"Ring4_None", ring4, CommMode::None},
        WalkMachine{"Ring4_Global", ring4, CommMode::Global},
        WalkMachine{"Ring4_LocalMem", ring4, CommMode::GlobalWithLocalMem}),
    [](const auto &info) { return std::string(info.param.label); });

// ---------------------------------------------------------------------
// Composition through the repeat algebra: hand-computed closed forms.
// ---------------------------------------------------------------------

/** leaf (g gates) <- mid (2 gates + leaf x3) <- entry (mid x5). */
struct ThreeLevelProgram
{
    Program prog;
    ModuleId leaf, mid, entry;

    ThreeLevelProgram()
    {
        leaf = prog.addModule("leaf");
        Module &l = prog.module(leaf);
        QubitId lq = l.addLocal("q");
        l.addGate(GateKind::H, {lq});
        l.addGate(GateKind::T, {lq});

        mid = prog.addModule("mid");
        Module &m = prog.module(mid);
        QubitId mq = m.addLocal("q");
        m.addGate(GateKind::X, {mq});
        m.addGate(GateKind::X, {mq});
        m.addCall(leaf, {}, 3);

        entry = prog.addModule("entry");
        Module &e = prog.module(entry);
        e.addLocal("q");
        e.addCall(mid, {}, 5);
        prog.setEntry(entry);
    }
};

TEST(SummaryComposition, MatchesHandComputedClosedForm)
{
    ThreeLevelProgram tlp;
    RcpScheduler rcp;
    MultiSimdArch arch(2);
    const CommMode mode = CommMode::Global;

    ScheduleSummaryAnalysis analysis(
        tlp.prog, mode, [&](const Module &mod, ModuleId) {
            LeafSchedule sched = rcp.schedule(mod, arch);
            CommunicationAnalyzer(arch, mode).annotate(sched);
            return summarizeLeafSchedule(sched, arch);
        });

    const ResourceSummary &leaf = analysis.summary(tlp.leaf);
    const ResourceSummary &mid = analysis.summary(tlp.mid);
    const ResourceSummary &program = analysis.programSummary();

    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t call_oh = MultiSimdArch::callOverhead(mode);

    EXPECT_EQ(leaf.gateOps, 2u);
    EXPECT_EQ(mid.gateOps, 2 + 3 * leaf.gateOps);
    EXPECT_EQ(program.gateOps, 5 * mid.gateOps);

    EXPECT_EQ(mid.serialCycles,
              2 * gate_cost + 3 * (leaf.serialCycles + call_oh));
    EXPECT_EQ(program.serialCycles, 5 * (mid.serialCycles + call_oh));

    EXPECT_EQ(mid.callInvocations, 3u);
    EXPECT_EQ(program.callInvocations, 5 * (mid.callInvocations + 1));

    EXPECT_EQ(program.teleportMoves, 15 * leaf.teleportMoves);
    EXPECT_EQ(program.peakRegionOccupancy,
              std::max(leaf.peakRegionOccupancy,
                       mid.peakRegionOccupancy));

    // Occupancy histograms count leaf timesteps only and compose
    // linearly: mid already includes its three leaf runs, the program
    // five mid runs.
    for (size_t b = 0; b < program.occupancy.size(); ++b) {
        EXPECT_EQ(mid.occupancy[b], 3 * leaf.occupancy[b]);
        EXPECT_EQ(program.occupancy[b], 5 * mid.occupancy[b]);
    }
    EXPECT_FALSE(analysis.programSummary().saturated());
}

TEST(SummaryComposition, LocalContributionIdentityHolds)
{
    ThreeLevelProgram tlp;
    RcpScheduler rcp;
    MultiSimdArch arch(2);
    const CommMode mode = CommMode::Global;
    ScheduleSummaryAnalysis analysis(
        tlp.prog, mode, [&](const Module &mod, ModuleId) {
            LeafSchedule sched = rcp.schedule(mod, arch);
            CommunicationAnalyzer(arch, mode).annotate(sched);
            return summarizeLeafSchedule(sched, arch);
        });
    ResourceEstimator invocations(tlp.prog);

    Count gates;
    Count serial;
    for (ModuleId id : analysis.analyzedModules()) {
        ResourceSummary local = analysis.localContribution(id);
        gates += invocations.invocations(id) * local.gateOps;
        serial += invocations.invocations(id) * local.serialCycles;
    }
    EXPECT_EQ(gates, analysis.programSummary().gateOps);
    EXPECT_EQ(serial, analysis.programSummary().serialCycles);
}

// ---------------------------------------------------------------------
// The estimate driver + exactness checker end to end.
// ---------------------------------------------------------------------

/** The schedule an estimate composes from: one coarse run of @p prog on
 * a fresh leaf cache, as msq-verify builds it. */
ProgramSchedule
coarseSchedule(const Program &prog, const MultiSimdArch &arch,
               const LeafScheduler &scheduler, CommMode mode)
{
    CoarseScheduler::Options options;
    options.leafCache = std::make_shared<LeafScheduleCache>();
    return CoarseScheduler(arch, scheduler, mode, options).schedule(prog);
}

TEST(EstimateChecker, PassesOnHandBuiltProgram)
{
    ThreeLevelProgram tlp;
    RcpScheduler rcp;
    MultiSimdArch arch(2);

    ProgramResourceEstimate est = computeProgramEstimate(
        tlp.prog, coarseSchedule(tlp.prog, arch, rcp, CommMode::Global),
        CommMode::Global);
    EXPECT_GT(est.makespanCycles, 0u);
    EXPECT_EQ(est.distinctLeafSchedules, 1u);
    EXPECT_EQ(est.leafModules, 1u);
    EXPECT_EQ(est.reachableModules, 3u);
    EXPECT_FALSE(est.program.saturated());

    DiagnosticEngine diags;
    EstimateCheckStats stats;
    EXPECT_TRUE(checkEstimateExactness(tlp.prog, arch, rcp,
                                       CommMode::Global, est, diags,
                                       {}, &stats));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_EQ(stats.leafFoldsChecked, 1u);
    EXPECT_GE(stats.modulesChecked, 3u);
    EXPECT_TRUE(stats.unrolledChecked);
    EXPECT_FALSE(hasCode(diags, DiagCode::EstimateSaturated));
}

TEST(EstimateChecker, CommModeNoneRaisesNoE001)
{
    // Under CommMode::None the CommStats occupancy telemetry is 0 by
    // contract, while the leaf summary still profiles region occupancy;
    // E001 must compare the analyzer's summary, not those zeros.
    Program prog;
    ModuleId leaf = prog.addModule("commleaf");
    addCommHeavyGates(prog.module(leaf), 8, 4);
    ModuleId entry = prog.addModule("entry");
    prog.module(entry).addLocal("q");
    prog.module(entry).addCall(leaf, {}, 3);
    prog.setEntry(entry);

    RcpScheduler rcp;
    MultiSimdArch arch(2);
    ProgramResourceEstimate est = computeProgramEstimate(
        prog, coarseSchedule(prog, arch, rcp, CommMode::None),
        CommMode::None);
    EXPECT_GT(est.program.activeRegionSteps, 0u);
    DiagnosticEngine diags;
    EstimateCheckStats stats;
    EXPECT_TRUE(checkEstimateExactness(prog, arch, rcp, CommMode::None,
                                       est, diags, {}, &stats));
    EXPECT_FALSE(hasCode(diags, DiagCode::EstimateLeafFoldMismatch));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_EQ(stats.leafFoldsChecked, 1u);
}

TEST(EstimateChecker, PerturbedMakespanTripsE002)
{
    // A makespan raised on the estimate, or on the schedule it is
    // composed from, disagrees with the checker's fresh recompute.
    ThreeLevelProgram tlp;
    RcpScheduler rcp;
    MultiSimdArch arch(2);
    for (bool on_schedule : {false, true}) {
        SCOPED_TRACE(on_schedule ? "schedule" : "estimate");
        ProgramSchedule psched =
            coarseSchedule(tlp.prog, arch, rcp, CommMode::Global);
        if (on_schedule)
            psched.totalCycles += 1;
        ProgramResourceEstimate est =
            computeProgramEstimate(tlp.prog, psched, CommMode::Global);
        if (!on_schedule)
            est.makespanCycles += 1;
        DiagnosticEngine diags;
        EXPECT_FALSE(checkEstimateExactness(tlp.prog, arch, rcp,
                                            CommMode::Global, est, diags));
        EXPECT_TRUE(hasCode(diags, DiagCode::EstimateMakespanMismatch));
    }
}

TEST(EstimateChecker, PerturbedSummaryTripsE002)
{
    ThreeLevelProgram tlp;
    RcpScheduler rcp;
    MultiSimdArch arch(2);
    ProgramResourceEstimate est = computeProgramEstimate(
        tlp.prog, coarseSchedule(tlp.prog, arch, rcp, CommMode::Global),
        CommMode::Global);
    est.program.gateOps += 1;
    DiagnosticEngine diags;
    EXPECT_FALSE(checkEstimateExactness(tlp.prog, arch, rcp,
                                        CommMode::Global, est, diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::EstimateMakespanMismatch));
}

TEST(EstimateChecker, WrongCachedLeafSummaryTripsE001)
{
    // Every cached leaf result gains one teleport, and the estimate is
    // composed from a schedule on that cache. Handed the same cache,
    // E002's fresh schedule recomposes the same wrong summaries; only
    // E001's comparison with the cached summary sees the fault.
    ThreeLevelProgram tlp;
    RcpScheduler rcp;
    MultiSimdArch arch(2);
    auto cache = std::make_shared<LeafScheduleCache>();
    CoarseScheduler::Options options;
    options.leafCache = cache;
    CoarseScheduler coarse(arch, rcp, CommMode::Global, options);
    const ProgramSchedule clean = coarse.schedule(tlp.prog);
    for (const auto &[key, result] : cache->snapshotEntries()) {
        auto wrong = std::make_shared<LeafScheduleResult>(*result);
        wrong->summary.teleportMoves += 1;
        ASSERT_TRUE(cache->remove(key));
        cache->insert(key, wrong);
    }
    ProgramResourceEstimate est = computeProgramEstimate(
        tlp.prog, coarse.schedule(tlp.prog), CommMode::Global);
    EXPECT_NE(est.program.teleportMoves,
              computeProgramEstimate(tlp.prog, clean, CommMode::Global)
                  .program.teleportMoves);

    DiagnosticEngine diags;
    EstimateOptions opts;
    opts.cache = cache;
    EXPECT_FALSE(checkEstimateExactness(tlp.prog, arch, rcp,
                                        CommMode::Global, est, diags, opts));
    bool named = false;
    for (const Diagnostic &d : diags.diagnostics())
        named |= d.code == DiagCode::EstimateLeafFoldMismatch &&
                 d.message.find("cached summary on teleportMoves") !=
                     std::string::npos;
    EXPECT_TRUE(named);
}

TEST(EstimateChecker, StructurallyIdenticalLeavesShareOneSchedule)
{
    // Two leaves that differ only in name and one that differs in
    // structure: the cache hands the twins one result, so the estimate
    // counts two distinct schedules and E001 folds two leaves.
    Program prog;
    ModuleId twin_a = prog.addModule("twin_a");
    addCommHeavyGates(prog.module(twin_a), 4, 2);
    ModuleId twin_b = prog.addModule("twin_b");
    addCommHeavyGates(prog.module(twin_b), 4, 2);
    ModuleId other = prog.addModule("other");
    addCommHeavyGates(prog.module(other), 6, 3);
    ModuleId entry = prog.addModule("entry");
    prog.module(entry).addLocal("q");
    for (ModuleId leaf : {twin_a, twin_b, other})
        prog.module(entry).addCall(leaf, {}, 2);
    prog.setEntry(entry);

    RcpScheduler rcp;
    MultiSimdArch arch(2);
    ProgramResourceEstimate est = computeProgramEstimate(
        prog, coarseSchedule(prog, arch, rcp, CommMode::Global),
        CommMode::Global);
    EXPECT_EQ(est.distinctLeafSchedules, 2u);
    EXPECT_EQ(est.leafModules, 3u);

    DiagnosticEngine diags;
    EstimateCheckStats stats;
    EXPECT_TRUE(checkEstimateExactness(prog, arch, rcp, CommMode::Global,
                                       est, diags, {}, &stats));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_EQ(stats.leafFoldsChecked, 2u);
}

TEST(EstimateChecker, ZeroOpLeafUnderHugeRepeatStaysExact)
{
    Program prog;
    ModuleId leaf = prog.addModule("noop");
    prog.module(leaf).addLocal("q");
    ModuleId entry = prog.addModule("entry");
    prog.module(entry).addLocal("q");
    prog.module(entry).addCall(leaf, {}, 1'000'000'000'000ull);
    prog.setEntry(entry);

    RcpScheduler rcp;
    MultiSimdArch arch(2);
    ProgramResourceEstimate est = computeProgramEstimate(
        prog, coarseSchedule(prog, arch, rcp, CommMode::Global),
        CommMode::Global);
    EXPECT_EQ(est.program.gateOps, 0u);
    // Each call still pays the flush overhead, nothing else.
    EXPECT_EQ(est.program.serialCycles,
              1'000'000'000'000ull *
                  MultiSimdArch::callOverhead(CommMode::Global));
    EXPECT_EQ(est.program.callInvocations, 1'000'000'000'000ull);
    EXPECT_FALSE(est.program.saturated());

    // The unrolled walk must abort on its op-visit budget (zero-gate
    // leaves still count one visit per invocation) without erroring.
    DiagnosticEngine diags;
    EstimateCheckStats stats;
    EXPECT_TRUE(checkEstimateExactness(prog, arch, rcp,
                                       CommMode::Global, est, diags,
                                       {}, &stats,
                                       /*materialize_budget=*/1000));
    EXPECT_FALSE(stats.unrolledChecked);
    EXPECT_EQ(diags.numErrors(), 0u);
}

// ---------------------------------------------------------------------
// Saturation contract: overflow poisons, warns, never false-alarms.
// ---------------------------------------------------------------------

TEST(EstimateChecker, SaturatedRepeatAlgebraPoisonsAndWarns)
{
    // Four nested 2^40 repeats run a one-gate leaf 2^160 > 2^128 times.
    Program prog;
    ModuleId callee = prog.addModule("leaf");
    {
        Module &l = prog.module(callee);
        QubitId q = l.addLocal("q");
        l.addGate(GateKind::H, {q});
    }
    for (const char *name : {"mid1", "mid2", "mid3", "entry"}) {
        ModuleId id = prog.addModule(name);
        prog.module(id).addLocal("q");
        prog.module(id).addCall(callee, {}, uint64_t(1) << 40);
        callee = id;
    }
    prog.setEntry(callee);

    RcpScheduler rcp;
    MultiSimdArch arch(2);
    DiagnosticEngine diags;
    ProgramResourceEstimate est = computeProgramEstimate(
        prog, coarseSchedule(prog, arch, rcp, CommMode::Global),
        CommMode::Global, nullptr, &diags);

    // Poisoned, not silently capped: dependent fields stick at
    // 2^128-1, which is what saturated() reads.
    EXPECT_TRUE(est.program.saturated());
    EXPECT_EQ(est.program.gateOps, Count::max());
    EXPECT_EQ(est.program.serialCycles, Count::max());
    EXPECT_EQ(est.program.commCycles, Count::max());
    EXPECT_TRUE(hasCode(diags, DiagCode::EstimateSaturated));

    // The independent gate estimator must saturate in lockstep: both
    // sides count in support/count.hh.
    ResourceEstimator estimator(prog);
    EXPECT_EQ(estimator.programGates(), Count::max());

    // Saturation downgrades exactness checks to the E006 warning; no
    // E001-E005 error may fire on clipped fields.
    DiagnosticEngine check_diags;
    EXPECT_TRUE(checkEstimateExactness(prog, arch, rcp,
                                       CommMode::Global, est,
                                       check_diags));
    EXPECT_EQ(check_diags.numErrors(), 0u);
    EXPECT_TRUE(hasCode(check_diags, DiagCode::EstimateSaturated));
}

TEST(EstimateChecker, UnsaturatedHugeRepeatStaysExactBelowClip)
{
    // 2^63 x (2^64-1) runs of a one-cycle leaf compose exactly: the
    // serial cycles, 2^128 - 2^63, sit just below the 2^128-1 clip.
    const uint64_t outer = uint64_t(1) << 63;
    const uint64_t inner = std::numeric_limits<uint64_t>::max();
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &l = prog.module(leaf);
        QubitId q = l.addLocal("q");
        l.addGate(GateKind::H, {q});
    }
    ModuleId mid = prog.addModule("mid");
    prog.module(mid).addLocal("q");
    prog.module(mid).addCall(leaf, {}, inner);
    ModuleId entry = prog.addModule("entry");
    prog.module(entry).addLocal("q");
    prog.module(entry).addCall(mid, {}, outer);
    prog.setEntry(entry);

    RcpScheduler rcp;
    MultiSimdArch arch(2);
    ProgramResourceEstimate est = computeProgramEstimate(
        prog, coarseSchedule(prog, arch, rcp, CommMode::Global),
        CommMode::Global);
    const Count runs = Count(outer) * inner;
    EXPECT_FALSE(est.program.saturated());
    EXPECT_EQ(est.program.gateOps, runs);
    EXPECT_EQ(est.program.callInvocations, runs + outer);
    // A leaf run and each call flush cost one cycle.
    EXPECT_EQ(est.program.serialCycles, 2 * runs + outer);
    EXPECT_EQ(est.program.serialCycles,
              Count::max() - (outer - 1));
}

// ---------------------------------------------------------------------
// scaleWorkload: totals scale exactly, distinct-module set does not.
// ---------------------------------------------------------------------

TEST(ScaleWorkload, ScalesEveryLinearFieldExactly)
{
    const auto spec =
        workloads::findWorkload(workloads::scaledParams(), "tfp");
    Program base = Toolflow::lowerWorkload(spec);
    Program scaled = Toolflow::lowerWorkload(spec);
    workloads::scaleWorkload(scaled, 1000);

    RcpScheduler rcp;
    MultiSimdArch arch(4);
    ProgramResourceEstimate b = computeProgramEstimate(
        base, coarseSchedule(base, arch, rcp, CommMode::Global),
        CommMode::Global);
    ProgramResourceEstimate s = computeProgramEstimate(
        scaled, coarseSchedule(scaled, arch, rcp, CommMode::Global),
        CommMode::Global);

    EXPECT_EQ(s.program.gateOps, 1000 * b.program.gateOps);
    EXPECT_EQ(s.program.teleportMoves, 1000 * b.program.teleportMoves);
    EXPECT_EQ(s.program.serialCycles,
              1000 * (b.program.serialCycles +
                      MultiSimdArch::callOverhead(CommMode::Global)));
    EXPECT_EQ(s.distinctLeafSchedules, b.distinctLeafSchedules);
    EXPECT_EQ(s.reachableModules, b.reachableModules + 1);

    DiagnosticEngine diags;
    EXPECT_TRUE(checkEstimateExactness(scaled, arch, rcp,
                                       CommMode::Global, s, diags));
}

TEST(ScaleWorkload, FactorOneIsNoOp)
{
    Program prog = workloads::findWorkload(workloads::scaledParams(),
                                           "tfp")
                       .build();
    const size_t modules_before = prog.reachableModules().size();
    workloads::scaleWorkload(prog, 1);
    EXPECT_EQ(prog.reachableModules().size(), modules_before);
}

// ---------------------------------------------------------------------
// All eight workloads x RCP/LPFS: exactness + ResourceEstimator
// cross-check at full pipeline fidelity (the acceptance criterion).
// ---------------------------------------------------------------------

TEST(EstimateWorkloads, AllEightExactUnderBothSchedulers)
{
    MultiSimdArch arch(4);
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);

        const Count independent_gates =
            ResourceEstimator(prog).programGates();

        for (SchedulerKind kind :
             {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            SCOPED_TRACE(spec.shortName + std::string("/") +
                         schedulerKindName(kind));
            auto scheduler = Toolflow::makeScheduler(kind);
            ProgramResourceEstimate est = computeProgramEstimate(
                prog,
                coarseSchedule(prog, arch, *scheduler, CommMode::Global),
                CommMode::Global);
            EXPECT_EQ(est.program.gateOps, independent_gates);
            EXPECT_GT(est.makespanCycles, 0u);

            DiagnosticEngine diags;
            EXPECT_TRUE(checkEstimateExactness(prog, arch, *scheduler,
                                               CommMode::Global, est,
                                               diags));
            EXPECT_EQ(diags.numErrors(), 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Telemetry contract: estimate.* counters and the phase span.
// ---------------------------------------------------------------------

TEST(EstimateTelemetry, RecordsCountersAndPhaseTiming)
{
    ThreeLevelProgram tlp;
    RcpScheduler rcp;
    MultiSimdArch arch(2);
    MetricsRegistry metrics;
    const ProgramSchedule psched =
        coarseSchedule(tlp.prog, arch, rcp, CommMode::Global);
    computeProgramEstimate(tlp.prog, psched, CommMode::Global, &metrics);
    computeProgramEstimate(tlp.prog, psched, CommMode::Global, &metrics);

    EXPECT_EQ(metrics.counter("estimate.runs").value(), 2u);
    EXPECT_EQ(
        metrics.counter("estimate.distinct_leaf_schedules").value(), 2u);
    EXPECT_EQ(metrics.counter("estimate.saturated_runs").value(), 0u);
    EXPECT_EQ(metrics.distribution("toolflow.estimate_ms")
                  .samples()
                  .size(),
              2u);
    EXPECT_EQ(metrics.distribution("estimate.program_gates")
                  .samples()
                  .size(),
              2u);
}

} // anonymous namespace
