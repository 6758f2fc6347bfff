/**
 * @file
 * Property-based tests: every (scheduler x architecture x random module)
 * combination must produce a schedule that passes the full validator —
 * coverage, dependences, SIMD homogeneity, qubit exclusivity, d budget,
 * and movement consistency under every communication mode — and core
 * metric invariants must hold (length >= critical path, length >= ops/k,
 * local memory never increases cost). On one core a width task's result
 * must not change past the scheduler's saturation width, which is what
 * lets the coarse scheduler collapse a leaf's wider sweep points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "support/logging.hh"

#include "core/toolflow.hh"
#include "ir/dag.hh"
#include "analysis/qubit_mapping.hh"
#include "analysis/schedule_summary.hh"
#include "sched/coarse.hh"
#include "sched/comm.hh"
#include "sched/leaf_cache.hh"
#include "sched/lpfs.hh"
#include "sched/opt.hh"
#include "sched/rcp.hh"
#include "sched/validator.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

#include "expect_clean_plan.hh"
#include "expect_summary.hh"

namespace {

using namespace msq;

/** Random leaf module generator: mixed 1- and 2-qubit primitive gates. */
Module
randomModule(uint64_t seed, unsigned qubits, unsigned ops)
{
    SplitMix64 rng(seed);
    Module mod("random");
    auto reg = mod.addRegister("q", qubits);
    const GateKind one_q[] = {GateKind::H,    GateKind::T, GateKind::Tdag,
                              GateKind::S,    GateKind::X, GateKind::Z,
                              GateKind::Sdag, GateKind::Y};
    for (unsigned i = 0; i < ops; ++i) {
        if (qubits >= 2 && rng.nextBelow(100) < 25) {
            QubitId a = static_cast<QubitId>(rng.nextBelow(qubits));
            QubitId b = static_cast<QubitId>(rng.nextBelow(qubits));
            if (a == b)
                b = (b + 1) % qubits;
            mod.addGate(rng.nextBelow(2) ? GateKind::CNOT : GateKind::CZ,
                        {a, b});
        } else {
            QubitId a = static_cast<QubitId>(rng.nextBelow(qubits));
            mod.addGate(one_q[rng.nextBelow(8)], {a});
        }
    }
    return mod;
}

/**
 * Check DepDag::build(@p mod) against a reference that shares no code
 * with it: op j depends on op i exactly when i is the previous op on one
 * of j's operands, found by scanning back from j pairwise. Also checks
 * the weighted depth, height and critical path under random weights
 * drawn from @p rng, computed by longest-path sweeps over the
 * reference's own edge lists.
 */
void
expectDagMatchesReference(const Module &mod, SplitMix64 &rng)
{
    const uint32_t n = static_cast<uint32_t>(mod.numOps());
    std::vector<std::vector<uint32_t>> preds(n), succs(n);
    for (uint32_t j = 0; j < n; ++j) {
        for (QubitId q : mod.op(j).operands) {
            for (uint32_t i = j; i-- > 0;) {
                const auto &ops = mod.op(i).operands;
                if (std::find(ops.begin(), ops.end(), q) == ops.end())
                    continue;
                if (std::find(preds[j].begin(), preds[j].end(), i) ==
                    preds[j].end())
                    preds[j].push_back(i);
                break;
            }
        }
        std::sort(preds[j].begin(), preds[j].end());
        for (uint32_t i : preds[j])
            succs[i].push_back(j); // ascending: j only grows
    }

    std::vector<uint64_t> weights(n);
    for (uint64_t &w : weights)
        w = 1 + rng.nextBelow(rng.nextBelow(2) ? 4 : uint64_t{1} << 40);
    std::vector<uint64_t> depth(n), height(n);
    uint64_t critical = 0;
    for (uint32_t j = 0; j < n; ++j) {
        depth[j] = weights[j];
        for (uint32_t i : preds[j])
            depth[j] = std::max(depth[j], depth[i] + weights[j]);
        critical = std::max(critical, depth[j]);
    }
    for (uint32_t j = n; j-- > 0;) {
        height[j] = weights[j];
        for (uint32_t s : succs[j])
            height[j] = std::max(height[j], height[s] + weights[j]);
    }

    const DepDag dag = DepDag::build(mod);
    ASSERT_EQ(dag.numNodes(), n);
    std::vector<uint32_t> roots;
    for (uint32_t j = 0; j < n; ++j) {
        if (preds[j].empty())
            roots.push_back(j);
        auto list = [](std::span<const uint32_t> span) {
            return std::vector<uint32_t>(span.begin(), span.end());
        };
        ASSERT_EQ(list(dag.preds(j)), preds[j]) << "node " << j;
        ASSERT_EQ(list(dag.succs(j)), succs[j]) << "node " << j;
    }
    EXPECT_EQ(dag.roots(), roots);
    EXPECT_EQ(dag.depthFromTop(weights), depth);
    EXPECT_EQ(dag.heightToBottom(weights), height);
    EXPECT_EQ(dag.criticalPathLength(weights), critical);
    EXPECT_EQ(criticalPathLength(mod, weights), critical);
    EXPECT_EQ(criticalPathLength(mod), dag.criticalPathLength());
}

struct PropertyCase
{
    uint64_t seed;
    unsigned qubits;
    unsigned ops;
    unsigned k;
    uint64_t d;
    uint64_t local;
};

class SchedulerProperties : public ::testing::TestWithParam<PropertyCase>
{};

TEST_P(SchedulerProperties, AllInvariantsHold)
{
    const auto &param = GetParam();
    Module mod = randomModule(param.seed, param.qubits, param.ops);
    MultiSimdArch arch(param.k, param.d, param.local);
    SplitMix64 weight_rng(param.seed);
    expectDagMatchesReference(mod, weight_rng);
    DepDag dag = DepDag::build(mod);
    uint64_t critical_path = dag.criticalPathLength();

    std::vector<std::unique_ptr<LeafScheduler>> schedulers;
    schedulers.push_back(std::make_unique<SequentialScheduler>());
    schedulers.push_back(std::make_unique<RcpScheduler>());
    schedulers.push_back(std::make_unique<LpfsScheduler>());
    LpfsScheduler::Options no_simd;
    no_simd.simd = false;
    schedulers.push_back(std::make_unique<LpfsScheduler>(no_simd));

    for (const auto &scheduler : schedulers) {
        LeafSchedule sched = scheduler->schedule(mod, arch);
        SCOPED_TRACE(scheduler->name());

        // Compute-only invariants.
        validateLeafSchedule(sched, arch);
        EXPECT_EQ(sched.scheduledOps(), mod.numOps());
        EXPECT_GE(sched.computeTimesteps(), critical_path);
        EXPECT_LE(sched.computeTimesteps(), mod.numOps());

        // Movement consistency under every communication mode.
        uint64_t global_cycles = 0;
        uint64_t local_cycles = 0;
        for (CommMode mode : {CommMode::Global,
                              CommMode::GlobalWithLocalMem}) {
            CommunicationAnalyzer comm(arch, mode);
            CommStats stats = comm.annotate(sched);
            test::expectCleanPlan(sched, arch);
            EXPECT_EQ(stats.totalCycles,
                      summarizeLeafSchedule(sched, arch).serialCycles);
            EXPECT_GE(stats.totalCycles, sched.computeTimesteps());
            if (mode == CommMode::Global) {
                global_cycles = stats.totalCycles;
                EXPECT_EQ(stats.localMoves, 0u);
            } else {
                local_cycles = stats.totalCycles;
            }
            EXPECT_GE(stats.teleportMoves, stats.blockingTeleports);
        }
        // Scratchpads can only remove blocking teleports.
        EXPECT_LE(local_cycles, global_cycles);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperties,
    ::testing::Values(
        PropertyCase{1, 4, 60, 2, unbounded, 0},
        PropertyCase{2, 4, 60, 2, unbounded, 4},
        PropertyCase{3, 8, 200, 4, unbounded, 2},
        PropertyCase{4, 8, 200, 4, 4, 8},
        PropertyCase{5, 12, 400, 4, unbounded, unbounded},
        PropertyCase{6, 3, 50, 1, unbounded, 1},
        PropertyCase{7, 16, 500, 8, unbounded, 0},
        PropertyCase{8, 16, 500, 8, 2, 16},
        PropertyCase{9, 2, 30, 6, unbounded, 3},
        PropertyCase{10, 24, 800, 3, 6, 2},
        PropertyCase{11, 6, 120, 2, 2, unbounded},
        PropertyCase{12, 10, 300, 5, unbounded, 5}),
    [](const ::testing::TestParamInfo<PropertyCase> &info) {
        const auto &param = info.param;
        std::string d_text = param.d == unbounded
                                 ? "inf"
                                 : std::to_string(param.d);
        std::string local_text = param.local == unbounded
                                     ? "inf"
                                     : std::to_string(param.local);
        return "seed" + std::to_string(param.seed) + "_q" +
               std::to_string(param.qubits) + "_ops" +
               std::to_string(param.ops) + "_k" +
               std::to_string(param.k) + "_d" + d_text + "_local" +
               local_text;
    });

/** The DAG reference check of AllInvariantsHold, on every module (leaf
 * and non-leaf) of every scaled workload. */
TEST(SchedulerProperties, DagMatchesReferenceOnWorkloadModules)
{
    SplitMix64 weight_rng(2015);
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);
        for (ModuleId id = 0; id < prog.numModules(); ++id) {
            SCOPED_TRACE(spec.shortName + "/" + prog.module(id).name());
            expectDagMatchesReference(prog.module(id), weight_rng);
        }
    }
}

/** The DAG-free frontier sweep equals the DAG's longest path on random
 * modules, at unit weights, random weights, and weights large enough
 * that both sides must saturate at 2^64-1. */
TEST(SchedulerProperties, FrontierSweepMatchesDagCriticalPath)
{
    SplitMix64 rng(1997);
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        const auto qubits = static_cast<unsigned>(1 + rng.nextBelow(20));
        const auto ops = static_cast<unsigned>(rng.nextBelow(300));
        Module mod = randomModule(seed, qubits, ops);
        const DepDag dag = DepDag::build(mod);
        SCOPED_TRACE(seed);
        EXPECT_EQ(criticalPathLength(mod), dag.criticalPathLength());

        const uint64_t scales[] = {4, uint64_t{1} << 40, uint64_t{1} << 62};
        for (uint64_t scale : scales) {
            std::vector<uint64_t> weights(mod.numOps());
            for (uint64_t &w : weights)
                w = rng.nextBelow(scale);
            EXPECT_EQ(criticalPathLength(mod, weights),
                      dag.criticalPathLength(weights))
                << "scale " << scale;
        }
    }
}

/** Single-qubit chains only: schedulers should approach zero blocking
 * communication (the pinning property LPFS is designed for). */
TEST(SchedulerProperties, PinnedChainsHaveLowBlockingTraffic)
{
    Module mod("chains");
    SplitMix64 rng(42);
    const GateKind types[] = {GateKind::H, GateKind::T, GateKind::S,
                              GateKind::X, GateKind::Z, GateKind::Tdag};
    auto reg = mod.addRegister("q", 4);
    for (int i = 0; i < 100; ++i)
        for (QubitId q : reg)
            mod.addGate(types[rng.nextBelow(6)], {q});

    MultiSimdArch arch(4);
    LpfsScheduler lpfs;
    LeafSchedule sched = lpfs.schedule(mod, arch);
    CommunicationAnalyzer comm(arch, CommMode::Global);
    CommStats stats = comm.annotate(sched);
    // 4 chains on 4 regions: after warm-up, essentially no movement.
    EXPECT_LT(stats.blockingTeleports, 20u);
    EXPECT_LT(stats.totalCycles, 150u); // ~100 steps + small overhead
}

/**
 * The summary CommunicationAnalyzer::annotate derives while emitting the
 * moves must equal the independent reference fold on every field, and
 * its totalCycles the fold's serialCycles, for random leaves under every
 * scheduler, communication model, machine shape and sweep width (each
 * width scheduled on a k = w machine and annotated on the full one, as
 * the coarse scheduler's width tasks do).
 */
TEST(SchedulerProperties, AnnotatorSummaryMatchesReferenceFold)
{
    struct Comm
    {
        const char *name;
        CommMode mode;
        uint64_t eprBandwidth;
    };
    const Comm comms[] = {
        {"none", CommMode::None, unbounded},
        {"global", CommMode::Global, unbounded},
        {"local-mem", CommMode::GlobalWithLocalMem, unbounded},
        {"epr1", CommMode::Global, 1},
    };
    MultiSimdArch flat(4, unbounded, /*localMemCapacity=*/2);
    MultiSimdArch ring(1);
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=4,k=2,link-bw=1,local-mem=2",
                                  ring, error))
        << error;

    std::vector<std::unique_ptr<LeafScheduler>> schedulers;
    schedulers.push_back(std::make_unique<SequentialScheduler>());
    schedulers.push_back(std::make_unique<RcpScheduler>());
    schedulers.push_back(std::make_unique<LpfsScheduler>());

    SplitMix64 rng(2015);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Module mod = randomModule(
            seed, 3 + static_cast<unsigned>(rng.nextBelow(10)),
            40 + static_cast<unsigned>(rng.nextBelow(160)));
        for (const MultiSimdArch &machine : {flat, ring}) {
            for (const Comm &comm : comms) {
                MultiSimdArch arch = machine;
                arch.eprBandwidth = comm.eprBandwidth;
                for (unsigned w : {1u, 2u, arch.k}) {
                    MultiSimdArch sub = arch;
                    sub.k = w;
                    for (const auto &scheduler : schedulers) {
                        SCOPED_TRACE(csprintf(
                            "seed %llu, %s, %s, w=%u, %s",
                            static_cast<unsigned long long>(seed),
                            arch.topology.multiCore() ? "ring" : "flat",
                            comm.name, w, scheduler->name()));
                        LeafSchedule sched =
                            scheduler->schedule(mod, sub);
                        const CommunicationAnalyzer analyzer(arch,
                                                             comm.mode);
                        ResourceSummary annotated;
                        analyzer.annotate(sched, annotated);
                        ResourceSummary fold =
                            summarizeLeafSchedule(sched, arch);
                        test::expectSameSummary(annotated, fold);
                        // The CommStats overload projects that summary.
                        EXPECT_EQ(analyzer.annotate(sched).totalCycles,
                                  fold.serialCycles);
                    }
                }
            }
        }
    }
}

/**
 * Two schedule buffers are equal in every field but k: slots, ops and
 * moves compared by field, not by bytes, since Move has padding.
 */
void
expectSameWidthBuffer(const ScheduleBuffer &x, const ScheduleBuffer &y)
{
    ASSERT_EQ(x.slots.size(), y.slots.size());
    for (size_t i = 0; i < x.slots.size(); ++i) {
        EXPECT_EQ(x.slots[i].opEnd, y.slots[i].opEnd) << "slot " << i;
        EXPECT_EQ(x.slots[i].region, y.slots[i].region) << "slot " << i;
        EXPECT_EQ(x.slots[i].kind, y.slots[i].kind) << "slot " << i;
    }
    EXPECT_EQ(x.slotEnd, y.slotEnd);
    EXPECT_EQ(x.ops, y.ops);
    ASSERT_EQ(x.moves.size(), y.moves.size());
    for (size_t i = 0; i < x.moves.size(); ++i) {
        EXPECT_EQ(x.moves[i].qubit, y.moves[i].qubit) << "move " << i;
        EXPECT_EQ(x.moves[i].from, y.moves[i].from) << "move " << i;
        EXPECT_EQ(x.moves[i].to, y.moves[i].to) << "move " << i;
        EXPECT_EQ(x.moves[i].blocking, y.moves[i].blocking)
            << "move " << i;
    }
    EXPECT_EQ(x.moveEnd, y.moveEnd);
}

/**
 * Two width-task results are equal field for field: every
 * ResourceSummary, MakespanBounds and ScheduleAttempt field, and the
 * rebind guard counts.
 */
void
expectSameWidthResult(const LeafScheduleResult &a,
                      const LeafScheduleResult &b)
{
    test::expectSameSummary(a.summary, b.summary);

    EXPECT_EQ(a.bounds.criticalPath, b.bounds.criticalPath);
    EXPECT_EQ(a.bounds.resource, b.bounds.resource);
    EXPECT_EQ(a.bounds.interval, b.bounds.interval);

    EXPECT_EQ(a.attempt.provenance, b.attempt.provenance);
    EXPECT_EQ(a.attempt.nodesExpanded, b.attempt.nodesExpanded);
    EXPECT_EQ(a.attempt.prunedByCriticalPath,
              b.attempt.prunedByCriticalPath);
    EXPECT_EQ(a.attempt.prunedByResource, b.attempt.prunedByResource);
    EXPECT_EQ(a.attempt.prunedByDominance, b.attempt.prunedByDominance);
    EXPECT_EQ(a.attempt.candidatesAnnotated, b.attempt.candidatesAnnotated);
    EXPECT_EQ(a.attempt.readyScanned, b.attempt.readyScanned);

    EXPECT_EQ(a.opCount, b.opCount);
    EXPECT_EQ(a.qubitCount, b.qubitCount);
}

/** An independent width task: it builds its own DAG, bound profile
 * and (on a multi-core topology) qubit mapping. */
std::shared_ptr<LeafScheduleResult>
widthTask(const LeafScheduler &scheduler, const Module &mod,
          const MultiSimdArch &arch, CommMode mode, unsigned w)
{
    const DepDag dag = DepDag::build(mod);
    std::vector<unsigned> home;
    if (arch.topology.multiCore())
        home = computeQubitMapping(mod, arch.topology);
    return scheduleLeafWidth(scheduler, mod, dag, LeafBoundProfile(mod, dag),
                             home, arch, mode, w);
}

/** The schedule a width task at @p w builds and drops: the scheduler
 * at k = @p w, annotated on the full machine. */
LeafSchedule
widthSchedule(const LeafScheduler &scheduler, const Module &mod,
              const MultiSimdArch &arch, CommMode mode, unsigned w)
{
    MultiSimdArch sub = arch;
    sub.k = w;
    LeafSchedule sched = scheduler.schedule(mod, sub);
    CommunicationAnalyzer(arch, mode).annotate(sched);
    return sched;
}

/** Every leaf scheduler the identity property covers, with the opt
 * tier judged under @p mode and kept small enough to run per width. */
std::vector<std::unique_ptr<LeafScheduler>>
widthSweepSchedulers(CommMode mode)
{
    std::vector<std::unique_ptr<LeafScheduler>> schedulers;
    schedulers.push_back(std::make_unique<SequentialScheduler>());
    schedulers.push_back(std::make_unique<RcpScheduler>());
    schedulers.push_back(std::make_unique<LpfsScheduler>());
    // Non-default LPFS options move the saturation width: without SIMD
    // filling a stalled path region idles while higher regions work,
    // and l > qubits adds path regions.
    for (unsigned l : {1u, 3u}) {
        for (bool simd : {false, true}) {
            for (bool refill : {false, true}) {
                LpfsScheduler::Options lpfs;
                lpfs.l = l;
                lpfs.simd = simd;
                lpfs.refill = refill;
                schedulers.push_back(std::make_unique<LpfsScheduler>(lpfs));
            }
        }
    }
    for (OptFallback fallback : {OptFallback::Rcp, OptFallback::Lpfs}) {
        OptScheduler::Options opt;
        opt.fallback = fallback;
        opt.nodeBudget = 2'000;
        opt.maxOps = 48;
        schedulers.push_back(std::make_unique<OptScheduler>(opt, mode));
    }
    return schedulers;
}

/**
 * The width-invariance contract of LeafScheduler::saturationWidth: on
 * one core, a width task at any width from the saturation width up to
 * 16 returns the saturation width's result in every field, and builds
 * the same schedule in every field but k, for random leaves of 1-4
 * qubits under every scheduler, region size d, local memory, EPR
 * bandwidth and communication mode.
 */
TEST(SchedulerProperties, WidthTasksMatchPastSaturation)
{
    struct Comm
    {
        const char *name;
        CommMode mode;
    };
    const Comm comms[] = {{"none", CommMode::None},
                          {"global", CommMode::Global},
                          {"local-mem", CommMode::GlobalWithLocalMem}};
    const uint64_t ds[] = {2, 3, 4, unbounded};
    SplitMix64 rng(1915);
    uint64_t pairs = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        const auto qubits = static_cast<unsigned>(1 + rng.nextBelow(4));
        const auto ops = static_cast<unsigned>(
            1 + rng.nextBelow(seed % 3 == 0 ? 300 : 60));
        Module mod = randomModule(seed, qubits, ops);
        MultiSimdArch arch(16, ds[rng.nextBelow(4)],
                           rng.nextBelow(2) ? 0 : 1 + rng.nextBelow(3));
        arch.eprBandwidth = rng.nextBelow(2) ? unbounded : 1;
        const Comm &comm = comms[seed % 3];
        for (const auto &scheduler : widthSweepSchedulers(comm.mode)) {
            const unsigned from = scheduler->saturationWidth(mod);
            ASSERT_GE(from, 1u);
            if (from > arch.k)
                continue;
            SCOPED_TRACE(csprintf(
                "seed %llu, q=%u, ops=%u, d=%s, local=%llu, epr=%s, %s, "
                "%s",
                static_cast<unsigned long long>(seed), qubits, ops,
                arch.d == unbounded ? "inf"
                                    : std::to_string(arch.d).c_str(),
                static_cast<unsigned long long>(arch.localMemCapacity),
                arch.eprBandwidth == unbounded ? "inf" : "1", comm.name,
                scheduler->fingerprint().c_str()));
            const auto base =
                widthTask(*scheduler, mod, arch, comm.mode, from);
            const LeafSchedule base_sched =
                widthSchedule(*scheduler, mod, arch, comm.mode, from);
            EXPECT_EQ(base_sched.k(), from);
            for (unsigned w = from + 1; w <= arch.k; ++w) {
                SCOPED_TRACE(csprintf("w=%u", w));
                // The coarse scheduler files the base result itself
                // under the wide slot's key.
                expectSameWidthResult(
                    *base, *widthTask(*scheduler, mod, arch, comm.mode, w));
                const LeafSchedule wide_sched =
                    widthSchedule(*scheduler, mod, arch, comm.mode, w);
                EXPECT_EQ(wide_sched.k(), w);
                expectSameWidthBuffer(base_sched.buffer(),
                                      wide_sched.buffer());
                ++pairs;
            }
        }
    }
    EXPECT_GT(pairs, 1000u);
}

/** Width identity on a machine wider than 64 regions, on both sides
 * of each 64-region boundary. */
TEST(SchedulerProperties, WidthTaskIdentityPastSixtyFourRegions)
{
    Module mod = randomModule(7, 3, 80);
    MultiSimdArch arch(130);
    LpfsScheduler lpfs;
    const auto base = widthTask(lpfs, mod, arch, CommMode::Global, 3);
    const LeafSchedule base_sched =
        widthSchedule(lpfs, mod, arch, CommMode::Global, 3);
    for (unsigned w : {64u, 65u, 128u, 130u}) {
        SCOPED_TRACE(w);
        expectSameWidthResult(
            *base, *widthTask(lpfs, mod, arch, CommMode::Global, w));
        expectSameWidthBuffer(
            base_sched.buffer(),
            widthSchedule(lpfs, mod, arch, CommMode::Global, w).buffer());
    }
}

/** Random program of low-qubit leaves called from one entry module. */
Program
lowQubitProgram(uint64_t seed)
{
    SplitMix64 rng(seed);
    Program prog;
    std::vector<ModuleId> leaves;
    for (unsigned i = 0; i < 6; ++i) {
        const auto qubits = static_cast<unsigned>(1 + rng.nextBelow(3));
        ModuleId id = prog.addModule(csprintf("leaf%u", i));
        Module generated = randomModule(
            seed * 16 + i, qubits,
            static_cast<unsigned>(5 + rng.nextBelow(60)));
        Module &mod = prog.module(id);
        for (unsigned q = 0; q < qubits; ++q)
            mod.addParam(csprintf("p%u", q));
        for (const Operation &op : generated.ops())
            mod.addOperation(op);
        leaves.push_back(id);
    }
    ModuleId top = prog.addModule("top");
    Module &mod = prog.module(top);
    auto reg = mod.addRegister("q", 4);
    for (unsigned i = 0; i < 12; ++i) {
        const ModuleId callee = leaves[rng.nextBelow(6)];
        std::vector<QubitId> args;
        for (unsigned q = 0; q < prog.module(callee).numQubits(); ++q)
            args.push_back(reg[(i + q) % 4]);
        mod.addCall(callee, args, 1 + rng.nextBelow(3));
    }
    prog.setEntry(top);
    return prog;
}

/**
 * Coarse level of the width collapse: every entry a collapsed compile
 * inserts into its cache equals an independent width task at that
 * entry's own width, a derived slot's entry is its saturating width's
 * entry itself, a derived slot's directly built schedule equals the
 * saturating width's in every field but k, and the compile inserts
 * exactly one entry per (leaf x width) slot. Run on four threads so
 * the derived slots, filled after the width tasks fan out, race
 * nothing.
 */
TEST(SchedulerProperties, CollapsedCacheEntriesMatchWidthTasks)
{
    struct Case
    {
        std::string name;
        Program prog;
        unsigned k;
    };
    std::vector<Case> cases;
    for (unsigned k : {4u, 8u}) {
        cases.push_back(
            {"shors", Toolflow::lowerWorkload(workloads::findWorkload(
                          workloads::scaledParams(), "shors")),
             k});
    }
    cases.push_back({"random", lowQubitProgram(11), 8});

    LpfsScheduler lpfs;
    for (const Case &c : cases) {
        SCOPED_TRACE(csprintf("%s k=%u", c.name.c_str(), c.k));
        const MultiSimdArch arch(c.k);
        CoarseScheduler::Options options;
        options.numThreads = 4;
        options.leafCache = std::make_shared<LeafScheduleCache>();
        MetricsRegistry metrics;
        options.metrics = &metrics;
        const CoarseScheduler coarse(arch, lpfs, CommMode::Global,
                                     options);
        coarse.schedule(c.prog);

        const std::string suffix = leafScheduleKeySuffix(
            lpfs.fingerprint(), arch, CommMode::Global);
        size_t slots = 0;
        uint64_t derived = 0;
        for (ModuleId id : c.prog.reachableModules()) {
            const Module &mod = c.prog.module(id);
            if (!mod.isLeaf())
                continue;
            const std::vector<unsigned> &sweep = coarse.widthSweep();
            const auto saturated =
                std::lower_bound(sweep.begin(), sweep.end(),
                                 lpfs.saturationWidth(mod));
            for (unsigned w : sweep) {
                SCOPED_TRACE(csprintf("%s w=%u", mod.name().c_str(), w));
                ++slots;
                const auto entry = options.leafCache->lookup(
                    leafScheduleKey(mod, w, suffix));
                ASSERT_NE(entry, nullptr);
                expectSameWidthResult(
                    *entry,
                    *widthTask(lpfs, mod, arch, CommMode::Global, w));
                if (saturated == sweep.end() || w <= *saturated)
                    continue;
                ++derived;
                EXPECT_EQ(entry, options.leafCache->lookup(leafScheduleKey(
                                     mod, *saturated, suffix)));
                expectSameWidthBuffer(
                    widthSchedule(lpfs, mod, arch, CommMode::Global,
                                  *saturated)
                        .buffer(),
                    widthSchedule(lpfs, mod, arch, CommMode::Global, w)
                        .buffer());
            }
        }
        EXPECT_EQ(options.leafCache->size(), slots);
        EXPECT_GT(derived, 0u);
        EXPECT_EQ(metrics.snapshot().counter("sched.leaf.derived_widths"),
                  derived);
    }
}

TEST(SchedulerProperties, DeterministicSchedules)
{
    Module mod = randomModule(99, 8, 300);
    MultiSimdArch arch(4);
    for (auto make : {+[]() -> std::unique_ptr<LeafScheduler> {
                          return std::make_unique<RcpScheduler>();
                      },
                      +[]() -> std::unique_ptr<LeafScheduler> {
                          return std::make_unique<LpfsScheduler>();
                      }}) {
        auto s1 = make()->schedule(mod, arch);
        auto s2 = make()->schedule(mod, arch);
        ASSERT_EQ(s1.computeTimesteps(), s2.computeTimesteps());
        for (uint64_t ts = 0; ts < s1.computeTimesteps(); ++ts) {
            TimestepView a = s1.step(ts);
            TimestepView b = s2.step(ts);
            ASSERT_EQ(a.activeRegions(), b.activeRegions());
            auto it = b.begin();
            for (RegionSlotView sa : a) {
                RegionSlotView sb = *it;
                ++it;
                EXPECT_EQ(sa.region(), sb.region());
                EXPECT_EQ(sa.kind(), sb.kind());
                std::span<const uint32_t> oa = sa.ops();
                std::span<const uint32_t> ob = sb.ops();
                EXPECT_EQ(std::vector<uint32_t>(oa.begin(), oa.end()),
                          std::vector<uint32_t>(ob.begin(), ob.end()));
            }
        }
    }
}

} // namespace
