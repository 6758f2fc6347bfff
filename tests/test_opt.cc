/**
 * @file
 * Tests for the branch-and-bound OptScheduler tier (sched/opt.hh) and
 * the scheduler correctness fixes that ride with it: deterministic
 * op-index tie-breaking in RCP/LPFS, duplicate-operand rejection, the
 * B007 false-certificate check, and thread/cache invariance of the
 * opt-scheduled toolflow.
 *
 * The property tests run under CommMode::None, where a schedule's
 * totalCycles equals its compute-timestep count — the regime in which
 * the LB certificate (totalCycles == composite bound) is attainable
 * and the opt tier produces real proofs.
 */

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "analysis/bounds.hh"
#include "core/toolflow.hh"
#include "ir/module.hh"
#include "sched/comm.hh"
#include "sched/lpfs.hh"
#include "sched/opt.hh"
#include "sched/rcp.hh"
#include "sched/validator.hh"
#include "support/logging.hh"
#include "verify/bound_checker.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

/** n independent H gates on n distinct qubits. */
Module
parallelH(unsigned n)
{
    Module mod("h");
    auto reg = mod.addRegister("q", n);
    for (QubitId q : reg)
        mod.addGate(GateKind::H, {q});
    return mod;
}

/**
 * A fixed instance on which both heuristics are provably suboptimal:
 * at k = 1, d = 2 the composite bound is 5 timesteps, RCP and LPFS
 * both schedule 7, and the branch-and-bound search finds (and
 * certifies) a 5-step packing. Found by random search over small DAGs;
 * kept literal so the regression is independent of any generator.
 */
Module
witnessModule()
{
    Module mod("witness");
    std::vector<QubitId> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(mod.addLocal("q" + std::to_string(i)));
    mod.addGate(GateKind::X, {q[2]});
    mod.addGate(GateKind::CNOT, {q[1], q[3]});
    mod.addGate(GateKind::X, {q[0]});
    mod.addGate(GateKind::T, {q[2]});
    mod.addGate(GateKind::X, {q[3]});
    mod.addGate(GateKind::X, {q[2]});
    mod.addGate(GateKind::CZ, {q[0], q[4]});
    mod.addGate(GateKind::T, {q[1]});
    return mod;
}

/** Per-op (timestep, region) placement, indexed by op index. */
std::vector<std::pair<uint64_t, unsigned>>
opPlacements(const LeafSchedule &sched)
{
    std::vector<std::pair<uint64_t, unsigned>> out(
        sched.module().numOps(), {0, 0});
    for (const TimestepView &step : sched.steps())
        for (const RegionSlotView &slot : step)
            for (uint32_t op : slot.ops())
                out[op] = {step.index(), slot.region()};
    return out;
}

/** Structural equality of the underlying schedule buffers. */
void
expectSameBuffer(const LeafSchedule &a, const LeafSchedule &b)
{
    const ScheduleBuffer &ba = a.buffer();
    const ScheduleBuffer &bb = b.buffer();
    EXPECT_EQ(ba.k, bb.k);
    EXPECT_EQ(ba.ops, bb.ops);
    EXPECT_EQ(ba.slotEnd, bb.slotEnd);
    ASSERT_EQ(ba.slots.size(), bb.slots.size());
    for (size_t i = 0; i < ba.slots.size(); ++i) {
        EXPECT_EQ(ba.slots[i].opEnd, bb.slots[i].opEnd);
        EXPECT_EQ(ba.slots[i].region, bb.slots[i].region);
        EXPECT_EQ(ba.slots[i].kind, bb.slots[i].kind);
    }
}

uint64_t
annotatedCycles(const LeafSchedule &sched, const MultiSimdArch &arch,
                CommMode mode)
{
    LeafSchedule copy = sched;
    CommunicationAnalyzer comm(arch, mode);
    return comm.annotate(copy).totalCycles;
}

// ---------------------------------------------------------------------
// OptScheduler core behavior.

TEST(Opt, RootCertificateWithoutSearch)
{
    // Width-1 parallel work: the LPFS fallback already sits on the
    // bound, so the proof closes at the root with zero nodes expanded.
    Module mod = parallelH(10);
    MultiSimdArch arch(4, unbounded, 0);
    OptScheduler opt({}, CommMode::None);
    ScheduleAttempt attempt;
    LeafSchedule sched = opt.scheduleWithAttempt(mod, arch, attempt);
    EXPECT_EQ(sched.computeTimesteps(), 1u);
    EXPECT_EQ(attempt.provenance, ScheduleProvenance::Optimal);
    EXPECT_EQ(attempt.nodesExpanded, 0u);
    EXPECT_TRUE(validateLeafSchedule(sched, arch));
    EXPECT_EQ(computeLeafBounds(mod, arch).composite(), 1u);
}

TEST(Opt, SearchStrictlyBeatsBothHeuristics)
{
    Module mod = witnessModule();
    MultiSimdArch arch(1, 2, 0);
    const uint64_t lb = computeLeafBounds(mod, arch).composite();
    ASSERT_EQ(lb, 5u);

    RcpScheduler rcp;
    LpfsScheduler lpfs;
    EXPECT_EQ(rcp.schedule(mod, arch).computeTimesteps(), 7u);
    EXPECT_EQ(lpfs.schedule(mod, arch).computeTimesteps(), 7u);

    OptScheduler opt({}, CommMode::None);
    ScheduleAttempt attempt;
    LeafSchedule sched = opt.scheduleWithAttempt(mod, arch, attempt);
    EXPECT_EQ(attempt.provenance, ScheduleProvenance::Optimal);
    EXPECT_GT(attempt.nodesExpanded, 0u); // a real search, not tier-0
    EXPECT_EQ(sched.computeTimesteps(), lb);
    EXPECT_EQ(sched.scheduledOps(), mod.numOps());
    EXPECT_TRUE(validateLeafSchedule(sched, arch));
    // The certificate is judged on annotated cycles, not just steps.
    EXPECT_EQ(annotatedCycles(sched, arch, CommMode::None), lb);
}

TEST(Opt, ZeroBudgetFallsBackToConfiguredHeuristic)
{
    Module mod = witnessModule();
    MultiSimdArch arch(1, 2, 0);
    for (OptFallback fb : {OptFallback::Lpfs, OptFallback::Rcp}) {
        OptScheduler::Options options;
        options.nodeBudget = 0;
        options.fallback = fb;
        OptScheduler opt(options, CommMode::None);
        ScheduleAttempt attempt;
        LeafSchedule sched = opt.scheduleWithAttempt(mod, arch, attempt);
        EXPECT_EQ(attempt.provenance, ScheduleProvenance::Fallback);
        EXPECT_EQ(attempt.nodesExpanded, 0u);
        LeafSchedule expected = fb == OptFallback::Rcp
                                    ? RcpScheduler().schedule(mod, arch)
                                    : LpfsScheduler().schedule(mod, arch);
        expectSameBuffer(sched, expected);
    }
}

TEST(Opt, OversizedLeafFallsBackWithoutSearch)
{
    // 300 independent gates of two kinds at k = 1: the composite bound
    // is 1 but kind-homogeneity forces >= 2 steps, so the root
    // certificate cannot close — and with more ops than maxOps the
    // search must not even start.
    Module mod("big");
    for (int i = 0; i < 300; ++i) { // default maxOps is 256
        QubitId q = mod.addLocal("q" + std::to_string(i));
        mod.addGate(i % 2 ? GateKind::T : GateKind::H, {q});
    }
    OptScheduler opt({}, CommMode::None);
    ScheduleAttempt attempt;
    MultiSimdArch arch(1, unbounded, 0);
    LeafSchedule sched = opt.scheduleWithAttempt(mod, arch, attempt);
    EXPECT_EQ(attempt.provenance, ScheduleProvenance::Fallback);
    EXPECT_EQ(attempt.nodesExpanded, 0u);
    EXPECT_EQ(sched.computeTimesteps(), 2u);
    EXPECT_EQ(computeLeafBounds(mod, arch).composite(), 1u);
}

TEST(Opt, FingerprintCoversEveryOutputAffectingOption)
{
    // Distinct fingerprints keep differently-configured opt schedulers
    // from aliasing in the leaf-schedule memoization cache.
    const std::string base = OptScheduler().fingerprint();
    // The string is part of every opt leaf's cache key.
    EXPECT_EQ(base, "opt(budget=200000,maxops=256,mode=global,"
                    "fallback=lpfs(l=1,simd=1,refill=1))");
    OptScheduler::Options options;
    options.nodeBudget = 17;
    EXPECT_NE(OptScheduler(options).fingerprint(), base);
    options = OptScheduler::Options{};
    options.maxOps = 8;
    EXPECT_NE(OptScheduler(options).fingerprint(), base);
    EXPECT_NE(OptScheduler({}, CommMode::None).fingerprint(), base);
    options = OptScheduler::Options{};
    options.fallback = OptFallback::Rcp;
    EXPECT_NE(OptScheduler(options).fingerprint(), base);
}

// ---------------------------------------------------------------------
// Property test: randomized small DAGs.

TEST(OptProperty, RandomDagsSitBetweenBoundAndFallback)
{
    std::mt19937 rng(20260808);
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    unsigned proofs = 0;
    unsigned fallbacks = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const unsigned nq = 3 + rng() % 6;
        const unsigned nops = 5 + rng() % 36; // <= 40 ops
        const unsigned k = 1 + rng() % 3;
        const unsigned d = 2 + rng() % 3;
        Module mod("rand" + std::to_string(trial));
        std::vector<QubitId> qs;
        for (unsigned i = 0; i < nq; ++i)
            qs.push_back(mod.addLocal("q" + std::to_string(i)));
        for (unsigned i = 0; i < nops; ++i) {
            if (rng() % 3 == 0) {
                unsigned a = rng() % nq;
                unsigned b = rng() % nq;
                while (b == a)
                    b = rng() % nq;
                mod.addGate(rng() % 2 ? GateKind::CNOT : GateKind::CZ,
                            {qs[a], qs[b]});
            } else {
                static const GateKind kOneQubit[] = {
                    GateKind::H, GateKind::T, GateKind::X};
                mod.addGate(kOneQubit[rng() % 3], {qs[rng() % nq]});
            }
        }
        MultiSimdArch arch(k, d, 0);
        SCOPED_TRACE("trial " + std::to_string(trial) + " k=" +
                     std::to_string(k) + " d=" + std::to_string(d));
        const uint64_t lb = computeLeafBounds(mod, arch).composite();
        const uint64_t fallback =
            lpfs.schedule(mod, arch).computeTimesteps();
        const uint64_t heuristic_best = std::min(
            fallback, rcp.schedule(mod, arch).computeTimesteps());

        OptScheduler::Options options;
        options.nodeBudget = 20'000;
        OptScheduler opt(options, CommMode::None);
        ScheduleAttempt attempt;
        LeafSchedule sched = opt.scheduleWithAttempt(mod, arch, attempt);
        const uint64_t steps = sched.computeTimesteps();

        EXPECT_TRUE(validateLeafSchedule(sched, arch));
        EXPECT_EQ(sched.scheduledOps(), mod.numOps());
        EXPECT_GE(steps, lb);
        EXPECT_LE(steps, fallback); // never worse than the fallback tier
        if (attempt.provenance == ScheduleProvenance::Optimal) {
            ++proofs;
            EXPECT_EQ(steps, lb);
            EXPECT_LE(steps, heuristic_best);
            EXPECT_EQ(annotatedCycles(sched, arch, CommMode::None), lb);
        } else {
            ++fallbacks;
            EXPECT_EQ(attempt.provenance, ScheduleProvenance::Fallback);
            EXPECT_EQ(steps, fallback);
        }
    }
    // The generator must exercise both outcomes to mean anything.
    EXPECT_GT(proofs, 0u);
    EXPECT_GT(fallbacks, 0u);
}

// ---------------------------------------------------------------------
// Scheduler correctness fixes riding along.

TEST(SchedulerInputs, DuplicateOperandsRejected)
{
    // A gate naming the same qubit twice would double-count operand
    // touches in both the schedulers and the bound side. The IR layer
    // rejects it at construction (every mutation path funnels through
    // addGate); LeafScheduler::checkInputs carries an independent
    // second check so no future IR mutation path can smuggle one in.
    Module mod("dup");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    mod.addGate(GateKind::CNOT, {a, b});
    EXPECT_THROW(mod.addGate(GateKind::CNOT, {a, a}), PanicError);
    EXPECT_THROW(mod.addGate(GateKind::CZ, {b, b}), PanicError);
    // The module stays valid and schedulable after the rejected adds.
    MultiSimdArch arch(2, 2, 0);
    EXPECT_EQ(RcpScheduler().schedule(mod, arch).computeTimesteps(), 1u);
}

TEST(TieBreak, QubitRelabelingDoesNotChangePlacements)
{
    // The same DAG expressed over two different qubit-ID labelings must
    // schedule identically op-for-op: ties break on op index, never on
    // qubit IDs. The permuted module allocates its qubits in reverse
    // order, so every QubitId differs while the op list (and therefore
    // the dependence DAG) is unchanged.
    auto build = [](bool reversed) {
        Module mod("relabel");
        std::vector<QubitId> ids(6);
        if (reversed) {
            for (int i = 5; i >= 0; --i)
                ids[i] = mod.addLocal("q" + std::to_string(i));
        } else {
            for (int i = 0; i < 6; ++i)
                ids[i] = mod.addLocal("q" + std::to_string(i));
        }
        mod.addGate(GateKind::H, {ids[0]});
        mod.addGate(GateKind::H, {ids[1]});
        mod.addGate(GateKind::CNOT, {ids[0], ids[2]});
        mod.addGate(GateKind::T, {ids[3]});
        mod.addGate(GateKind::T, {ids[4]});
        mod.addGate(GateKind::CNOT, {ids[1], ids[5]});
        mod.addGate(GateKind::H, {ids[2]});
        mod.addGate(GateKind::H, {ids[5]});
        mod.addGate(GateKind::T, {ids[0]});
        mod.addGate(GateKind::T, {ids[1]});
        return mod;
    };
    Module plain = build(false);
    Module reversed = build(true);
    MultiSimdArch arch(2, 2, 0);
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    EXPECT_EQ(opPlacements(rcp.schedule(plain, arch)),
              opPlacements(rcp.schedule(reversed, arch)));
    EXPECT_EQ(opPlacements(lpfs.schedule(plain, arch)),
              opPlacements(lpfs.schedule(reversed, arch)));
}

TEST(TieBreak, LowestOpIndexWinsAmongEqualPriorities)
{
    // Four identical independent gates, room for two per step: the tie
    // must resolve to ascending op index, steps {0,1} then {2,3}.
    Module mod = parallelH(4);
    MultiSimdArch arch(2, 1, 0);
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    for (const LeafScheduler *sched :
         std::initializer_list<const LeafScheduler *>{&rcp, &lpfs}) {
        auto placements = opPlacements(sched->schedule(mod, arch));
        ASSERT_EQ(placements.size(), 4u);
        EXPECT_EQ(placements[0].first, 0u);
        EXPECT_EQ(placements[1].first, 0u);
        EXPECT_EQ(placements[2].first, 1u);
        EXPECT_EQ(placements[3].first, 1u);
    }
}

// ---------------------------------------------------------------------
// B007: a false optimality certificate is an error, never valid output.

TEST(BoundChecker, FalseOptimalCertificateTripsB007)
{
    Program prog;
    ModuleId chain = prog.addModule("chain");
    {
        Module &mod = prog.module(chain);
        QubitId q = mod.addLocal("q");
        for (int i = 0; i < 4; ++i)
            mod.addGate(GateKind::H, {q});
    }
    prog.setEntry(chain);

    // An honest (but slow) 6-step schedule of a 4-step chain...
    ProgramSchedule psched;
    psched.modules.resize(1);
    psched.modules[0].analyzed = true;
    psched.modules[0].leaf = true;
    psched.modules[0].dims = {{1, 6}};
    psched.totalCycles = 6;
    {
        DiagnosticEngine diags;
        EXPECT_TRUE(checkScheduleBounds(prog, psched, MultiSimdArch(1),
                                        CommMode::None, diags));
        EXPECT_FALSE(diags.has(DiagCode::BoundOptimalGapNotOne));
    }

    // ...becomes a checker error the moment it claims to be optimal.
    auto claim = std::make_shared<LeafScheduleResult>();
    claim->attempt.provenance = ScheduleProvenance::Optimal;
    psched.modules[0].result = claim;
    {
        DiagnosticEngine diags;
        ProgramGapReport report;
        EXPECT_FALSE(checkScheduleBounds(prog, psched, MultiSimdArch(1),
                                         CommMode::None, diags,
                                         &report));
        EXPECT_TRUE(diags.has(DiagCode::BoundOptimalGapNotOne));
        ASSERT_EQ(report.leaves.size(), 1u);
        EXPECT_EQ(report.leaves[0].provenance,
                  ScheduleProvenance::Optimal);
        EXPECT_GT(report.leaves[0].gap, 1.0);
    }

    // A genuinely bound-tight optimal claim stays clean.
    psched.modules[0].dims = {{1, 4}};
    psched.totalCycles = 4;
    {
        DiagnosticEngine diags;
        EXPECT_TRUE(checkScheduleBounds(prog, psched, MultiSimdArch(1),
                                        CommMode::None, diags));
        EXPECT_FALSE(diags.has(DiagCode::BoundOptimalGapNotOne));
    }
}

// ---------------------------------------------------------------------
// Determinism: the opt tier through the full toolflow.

ToolflowResult
runOptToolflow(const std::string &short_name, unsigned num_threads,
               bool cache)
{
    auto spec =
        workloads::findWorkload(workloads::tinyParams(), short_name);
    Program prog = spec.build();
    ToolflowConfig config;
    config.scheduler = SchedulerKind::Opt;
    config.arch = MultiSimdArch(4, unbounded, 0);
    config.commMode = CommMode::None; // the certificate-friendly regime
    config.optOptions.nodeBudget = 2'000;
    config.rotations = Toolflow::rotationPresetFor(short_name);
    config.numThreads = num_threads;
    config.leafCache = cache;
    return Toolflow(config).run(prog);
}

TEST(DeterminismOpt, ThreadCountAndCacheInvariance)
{
    for (const char *workload : {"tfp", "grovers"}) {
        ToolflowResult baseline = runOptToolflow(workload, 1, false);
        // At the widest width the bound is attainable here: at least
        // one leaf must carry a real certificate through the toolflow.
        bool any_optimal = false;
        for (const ModuleScheduleInfo &info : baseline.schedule.modules)
            if (info.analyzed && info.leaf &&
                info.result->attempt.provenance ==
                    ScheduleProvenance::Optimal)
                any_optimal = true;
        EXPECT_TRUE(any_optimal) << workload;

        struct Config
        {
            unsigned threads;
            bool cache;
        };
        for (Config config : {Config{2, false}, Config{8, false},
                              Config{1, true}, Config{8, true}}) {
            ToolflowResult other =
                runOptToolflow(workload, config.threads, config.cache);
            std::string context = std::string(workload) + " threads=" +
                                  std::to_string(config.threads) +
                                  (config.cache ? " cache" : "");
            EXPECT_EQ(baseline.scheduledCycles, other.scheduledCycles)
                << context;
            ASSERT_EQ(baseline.schedule.modules.size(),
                      other.schedule.modules.size())
                << context;
            EXPECT_EQ(baseline.schedule.totalCycles,
                      other.schedule.totalCycles)
                << context;
            for (size_t i = 0; i < baseline.schedule.modules.size();
                 ++i) {
                const ModuleScheduleInfo &ma =
                    baseline.schedule.modules[i];
                const ModuleScheduleInfo &mb = other.schedule.modules[i];
                SCOPED_TRACE(context + ", module " + std::to_string(i));
                ASSERT_EQ(ma.analyzed, mb.analyzed);
                if (!ma.analyzed)
                    continue;
                ASSERT_EQ(ma.dims.size(), mb.dims.size());
                for (size_t dim = 0; dim < ma.dims.size(); ++dim) {
                    EXPECT_EQ(ma.dims[dim].width, mb.dims[dim].width);
                    EXPECT_EQ(ma.dims[dim].length, mb.dims[dim].length);
                }
                ASSERT_EQ(ma.result == nullptr, mb.result == nullptr);
                if (!ma.result)
                    continue;
                EXPECT_EQ(ma.result->attempt.provenance,
                          mb.result->attempt.provenance);
                EXPECT_EQ(ma.result->summary.serialCycles,
                          mb.result->summary.serialCycles);
            }
        }
    }
}

} // namespace
