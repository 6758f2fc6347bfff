/**
 * @file
 * Property-based tests: every (scheduler x architecture x random module)
 * combination must produce a schedule that passes the full validator —
 * coverage, dependences, SIMD homogeneity, qubit exclusivity, d budget,
 * and movement consistency under every communication mode — and core
 * metric invariants must hold (length >= critical path, length >= ops/k,
 * local memory never increases cost).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "support/logging.hh"

#include "core/toolflow.hh"
#include "ir/dag.hh"
#include "analysis/schedule_summary.hh"
#include "sched/comm.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "sched/validator.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

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
            validateLeafSchedule(sched, arch, true);
            EXPECT_EQ(stats.totalCycles, sched.totalCycles());
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
                        ResourceSummary annotated;
                        CommStats stats =
                            CommunicationAnalyzer(arch, comm.mode)
                                .annotate(sched, annotated);
                        ResourceSummary fold =
                            summarizeLeafSchedule(sched, arch);
                        for (const ResourceSummary::Field &f :
                             ResourceSummary::fields())
                            EXPECT_EQ(annotated.*f.member,
                                      fold.*f.member)
                                << f.name;
                        EXPECT_EQ(annotated.occupancy, fold.occupancy);
                        EXPECT_EQ(annotated.saturated, fold.saturated);
                        EXPECT_EQ(stats.totalCycles, fold.serialCycles);
                        if (!arch.topology.multiCore()) {
                            EXPECT_EQ(stats.totalCycles,
                                      sched.totalCycles(
                                          arch.eprBandwidth));
                        }
                    }
                }
            }
        }
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
            ASSERT_EQ(a.numSlots(), b.numSlots());
            for (unsigned i = 0; i < a.numSlots(); ++i) {
                RegionSlotView sa = a.slot(i);
                RegionSlotView sb = b.slot(i);
                EXPECT_EQ(sa.region(), sb.region());
                EXPECT_EQ(sa.kind(), sb.kind());
                OpSpan oa = sa.ops();
                OpSpan ob = sb.ops();
                EXPECT_EQ(std::vector<uint32_t>(oa.begin(), oa.end()),
                          std::vector<uint32_t>(ob.begin(), ob.end()));
            }
        }
    }
}

} // namespace
