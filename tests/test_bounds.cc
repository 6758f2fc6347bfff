/**
 * @file
 * Tests for the static makespan lower bounds (analysis/bounds.hh) and
 * the B004-B007 schedule-quality checker (verify/bound_checker.hh).
 *
 * Each bound family has a tightness witness: a hand-built DAG whose
 * optimal schedule *equals* the bound, proving the bound is exact there
 * (not merely sound). Corruption tests prove a too-short schedule trips
 * the documented B-code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "analysis/bounds.hh"
#include "analysis/resource_estimator.hh"
#include "analysis/schedule_summary.hh"
#include "core/toolflow.hh"
#include "ir/dag.hh"
#include "sched/coarse.hh"
#include "sched/leaf_cache.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "support/diagnostic.hh"
#include "support/rng.hh"
#include "support/saturate.hh"
#include "verify/bound_checker.hh"
#include "workloads/workloads.hh"

#include "test_schedule_builder.hh"

namespace {

using namespace msq;

using test::TestScheduleBuilder;

bool
hasCode(const DiagnosticEngine &diags, DiagCode code)
{
    for (const Diagnostic &d : diags.diagnostics())
        if (d.code == code)
            return true;
    return false;
}

/** n serial gates on one qubit (critical path = n). */
Module
serialChain(unsigned n)
{
    Module mod("chain");
    QubitId q = mod.addLocal("q");
    for (unsigned i = 0; i < n; ++i)
        mod.addGate(i % 2 ? GateKind::T : GateKind::H, {q});
    return mod;
}

/** n independent one-qubit gates on n distinct qubits (cp = 1). */
Module
independentGates(unsigned n)
{
    Module mod("indep");
    for (unsigned i = 0; i < n; ++i) {
        QubitId q = mod.addLocal("q" + std::to_string(i));
        mod.addGate(GateKind::X, {q});
    }
    return mod;
}

/**
 * Two parallel 5-chains X,X,Toffoli,X,X; each Toffoli borrows two
 * otherwise idle qubits, pinning 6 operand touches into a one-step
 * ASAP/ALAP window. At k=1, d=3: cp = 5, resource = ceil(14/3) = 5,
 * but the interval bound sees the congested window and proves 6.
 */
Module
toffoliPinch()
{
    Module mod("pinch");
    QubitId a = mod.addLocal("a");
    QubitId p = mod.addLocal("p");
    QubitId q = mod.addLocal("q");
    QubitId b = mod.addLocal("b");
    QubitId r = mod.addLocal("r");
    QubitId s = mod.addLocal("s");
    mod.addGate(GateKind::X, {a});            // op 0
    mod.addGate(GateKind::X, {a});            // op 1
    mod.addGate(GateKind::Toffoli, {a, p, q}); // op 2
    mod.addGate(GateKind::X, {a});            // op 3
    mod.addGate(GateKind::X, {a});            // op 4
    mod.addGate(GateKind::X, {b});            // op 5
    mod.addGate(GateKind::X, {b});            // op 6
    mod.addGate(GateKind::Toffoli, {b, r, s}); // op 7
    mod.addGate(GateKind::X, {b});            // op 8
    mod.addGate(GateKind::X, {b});            // op 9
    return mod;
}

// ---------------------------------------------------------------------
// Leaf bound families, each with an exactness witness.
// ---------------------------------------------------------------------

TEST(LeafBounds, CriticalPathExactOnSerialChain)
{
    Module mod = serialChain(10);
    MakespanBounds bounds = computeLeafBounds(mod, MultiSimdArch(4));
    EXPECT_EQ(bounds.criticalPath, 10u);
    EXPECT_EQ(bounds.composite(), 10u);

    // Both schedulers achieve the bound: the critical path is exact.
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    EXPECT_EQ(rcp.schedule(mod, MultiSimdArch(4)).computeTimesteps(),
              10u);
    EXPECT_EQ(lpfs.schedule(mod, MultiSimdArch(4)).computeTimesteps(),
              10u);
}

TEST(LeafBounds, ResourceExactOnIndependentGates)
{
    Module mod = independentGates(8);

    // k=1, d=1: one operand touch per step; 8 touches need 8 steps.
    MakespanBounds narrow = computeLeafBounds(mod, MultiSimdArch(1, 1));
    EXPECT_EQ(narrow.criticalPath, 1u);
    EXPECT_EQ(narrow.resource, 8u);
    EXPECT_EQ(narrow.composite(), 8u);
    LpfsScheduler lpfs;
    EXPECT_EQ(lpfs.schedule(mod, MultiSimdArch(1, 1)).computeTimesteps(),
              8u);

    // k=2, d=2: capacity 4 per step.
    MakespanBounds wide = computeLeafBounds(mod, MultiSimdArch(2, 2));
    EXPECT_EQ(wide.resource, 2u);
    EXPECT_EQ(lpfs.schedule(mod, MultiSimdArch(2, 2)).computeTimesteps(),
              2u);
}

TEST(LeafBounds, IntervalBeatsCriticalPathAndResource)
{
    Module mod = toffoliPinch();
    MultiSimdArch arch(1, 3);
    MakespanBounds bounds = computeLeafBounds(mod, arch);
    EXPECT_EQ(bounds.criticalPath, 5u);
    EXPECT_EQ(bounds.resource, 5u); // ceil(14 touches / 3)
    EXPECT_EQ(bounds.interval, 6u); // strictly stronger
    EXPECT_EQ(bounds.composite(), 6u);

    // A valid 6-step schedule exists, so 6 is exact: the X pairs share
    // a SIMD slot (2 touches), each Toffoli takes a step alone (3).
    LeafSchedule sched = TestScheduleBuilder(mod, 1)
                             .step({{0, 0}, {0, 5}})
                             .step({{0, 1}, {0, 6}})
                             .step({{0, 2}})
                             .step({{0, 7}})
                             .step({{0, 3}, {0, 8}})
                             .step({{0, 4}, {0, 9}})
                             .take();
    EXPECT_EQ(sched.computeTimesteps(), bounds.composite());
}

TEST(LeafBounds, EmptyModuleHasZeroBounds)
{
    Module mod("empty");
    mod.addLocal("q");
    MakespanBounds bounds = computeLeafBounds(mod, MultiSimdArch(4));
    EXPECT_EQ(bounds.composite(), 0u);
}

TEST(LeafBounds, NonIncreasingInWidth)
{
    Module mod = independentGates(16);
    uint64_t previous = std::numeric_limits<uint64_t>::max();
    for (unsigned k = 1; k <= 8; k *= 2) {
        uint64_t bound = computeLeafBounds(mod, MultiSimdArch(k, 2))
                             .composite();
        EXPECT_LE(bound, previous) << "width " << k;
        previous = bound;
    }
}

// ---------------------------------------------------------------------
// The interval bound against a direct per-start reference.
// ---------------------------------------------------------------------

/** Sampling budget of the interval bound (bounds.cc). */
constexpr size_t referenceEndpoints = 64;

std::vector<uint64_t>
referenceSample(const std::vector<uint64_t> &values)
{
    if (values.size() <= referenceEndpoints)
        return values;
    std::vector<uint64_t> out;
    for (size_t i = 0; i < referenceEndpoints; ++i) {
        size_t index = i * (values.size() - 1) / (referenceEndpoints - 1);
        if (out.empty() || out.back() != values[index])
            out.push_back(values[index]);
    }
    return out;
}

/**
 * The leaf bounds computed the straightforward way: for every sampled
 * window start, re-bucket every op contained past it by its sampled
 * finish and scan the prefix loads. Quadratic in the sample budget
 * times the op count; the library must agree with it exactly.
 */
MakespanBounds
referenceLeafBounds(const Module &mod, const MultiSimdArch &arch)
{
    MakespanBounds bounds;
    if (mod.numOps() == 0)
        return bounds;
    DepDag dag = DepDag::build(mod);
    const uint64_t cp = dag.criticalPathLength();
    bounds.criticalPath = cp;

    uint64_t touches = 0;
    for (const auto &op : mod.ops())
        touches += op.operands.size();
    const uint64_t cap = std::max<uint64_t>(
        std::min<uint64_t>(satMul(arch.k, arch.d), mod.numQubits()), 1);
    bounds.resource = satCeilDiv(touches, cap);

    const size_t n = dag.numNodes();
    auto depth = dag.depthFromTop();
    auto height = dag.heightToBottom();
    std::vector<uint64_t> es(n), lf(n), starts(n), finishes(n);
    for (size_t i = 0; i < n; ++i) {
        starts[i] = es[i] = depth[i] - 1;
        finishes[i] = lf[i] = cp - height[i] + 1;
    }
    for (auto *values : {&starts, &finishes}) {
        std::sort(values->begin(), values->end());
        values->erase(std::unique(values->begin(), values->end()),
                      values->end());
        *values = referenceSample(*values);
    }

    uint64_t max_excess = 0;
    for (uint64_t a : starts) {
        std::vector<uint64_t> load(finishes.size(), 0);
        for (size_t i = 0; i < n; ++i) {
            if (es[i] < a)
                continue;
            size_t bucket = std::lower_bound(finishes.begin(),
                                             finishes.end(), lf[i]) -
                            finishes.begin();
            load[bucket] += mod.op(i).operands.size();
        }
        uint64_t running = 0;
        for (size_t j = 0; j < finishes.size(); ++j) {
            running += load[j];
            if (finishes[j] <= a)
                continue;
            uint64_t steps = satCeilDiv(running, cap);
            uint64_t span = finishes[j] - a;
            if (steps > span)
                max_excess = std::max(max_excess, steps - span);
        }
    }
    bounds.interval = cp + max_excess;
    return bounds;
}

/**
 * Both computeLeafBounds and @p profile (built once for all of the
 * leaf's sweep points) evaluated at @p arch equal the reference.
 */
void
expectBoundsMatchReference(const Module &mod,
                           const LeafBoundProfile &profile,
                           const MultiSimdArch &arch)
{
    const MakespanBounds want = referenceLeafBounds(mod, arch);
    for (const MakespanBounds &got :
         {computeLeafBounds(mod, arch), profile.evaluate(arch)}) {
        EXPECT_EQ(got.criticalPath, want.criticalPath);
        EXPECT_EQ(got.resource, want.resource);
        EXPECT_EQ(got.interval, want.interval);
    }
}

/** A random leaf of @p ops gates (1-3 operands) over @p qubits qubits. */
Module
randomLeaf(SplitMix64 &rng, unsigned qubits, unsigned ops)
{
    Module mod("random");
    auto reg = mod.addRegister("q", qubits);
    static const GateKind oneQubit[] = {GateKind::H, GateKind::T,
                                        GateKind::X};
    for (unsigned i = 0; i < ops; ++i) {
        QubitId a = reg[rng.nextBelow(qubits)];
        QubitId b = reg[rng.nextBelow(qubits)];
        QubitId c = reg[rng.nextBelow(qubits)];
        uint64_t shape = rng.nextBelow(6);
        if (shape == 0 && a != b && b != c && a != c)
            mod.addGate(GateKind::Toffoli, {a, b, c});
        else if (shape <= 2 && a != b)
            mod.addGate(GateKind::CNOT, {a, b});
        else
            mod.addGate(oneQubit[rng.nextBelow(3)], {a});
    }
    return mod;
}

TEST(IntervalBoundReference, RandomLeavesMatch)
{
    SplitMix64 rng(20150314);
    bool sampled = false;
    for (unsigned trial = 0; trial < 40; ++trial) {
        unsigned qubits = 2 + static_cast<unsigned>(rng.nextBelow(14));
        unsigned ops = 1 + static_cast<unsigned>(rng.nextBelow(900));
        Module mod = randomLeaf(rng, qubits, ops);
        const DepDag dag = DepDag::build(mod);
        const LeafBoundProfile profile(mod, dag);
        // Past 64 distinct window starts the endpoint sampling is live.
        sampled |= dag.criticalPathLength() > 64;
        for (unsigned k : {1u, 2u, 4u}) {
            for (uint64_t d : {uint64_t(2), uint64_t(3), unbounded}) {
                SCOPED_TRACE("trial " + std::to_string(trial) + " k=" +
                             std::to_string(k) +
                             " d=" + std::to_string(d));
                expectBoundsMatchReference(mod, profile,
                                           MultiSimdArch(k, d));
            }
        }
    }
    EXPECT_TRUE(sampled) << "no trial exercised endpoint sampling";
}

TEST(IntervalBoundReference, WorkloadLeavesMatch)
{
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);
        for (ModuleId id = 0; id < prog.numModules(); ++id) {
            const Module &mod = prog.module(id);
            if (!mod.isLeaf())
                continue;
            const LeafBoundProfile profile(mod, DepDag::build(mod));
            for (unsigned k : {1u, 2u, 4u}) {
                for (uint64_t d : {uint64_t(2), uint64_t(3), unbounded}) {
                    SCOPED_TRACE(spec.shortName + "/" + mod.name() +
                                 " k=" + std::to_string(k) +
                                 " d=" + std::to_string(d));
                    expectBoundsMatchReference(mod, profile,
                                               MultiSimdArch(k, d));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hierarchical composition.
// ---------------------------------------------------------------------

/** top calls a 10-gate chain twice serially plus one tail gate. */
Program
serialProgram()
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
        QubitId q = mod.addLocal("q");
        mod.addCall(chain, {q});
        mod.addCall(chain, {q});
        mod.addGate(GateKind::H, {q});
    }
    prog.setEntry(top);
    return prog;
}

TEST(MakespanBoundAnalysis, SerialCompositionIsExact)
{
    Program prog = serialProgram();
    MakespanBoundAnalysis analysis(prog, MultiSimdArch(4),
                                   CommMode::None);
    // 10 + 10 + 1, all serial on one qubit; no comm costs under None.
    EXPECT_EQ(analysis.programLowerBound(), 21u);

    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(4), leaf, CommMode::None);
    ProgramSchedule psched = coarse.schedule(prog);
    EXPECT_EQ(psched.totalCycles, 21u);

    DiagnosticEngine diags;
    ProgramGapReport report;
    EXPECT_TRUE(checkScheduleBounds(prog, psched, MultiSimdArch(4),
                                    CommMode::None, diags, &report));
    EXPECT_EQ(report.programGap, 1.0); // the composed bound is exact
}

TEST(MakespanBoundAnalysis, RepeatAlgebraMultipliesThroughCallGraph)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        for (int i = 0; i < 10; ++i)
            mod.addGate(GateKind::H, {q});
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

    // Mode None: no call overhead -> 2 * 3 * 10.
    MakespanBoundAnalysis none(prog, MultiSimdArch(2), CommMode::None);
    EXPECT_EQ(none.programLowerBound(), 60u);

    // Mode Global charges 1 cycle per call entry: 2 * (3*(10+1) + 1).
    MakespanBoundAnalysis global(prog, MultiSimdArch(2),
                                 CommMode::Global);
    EXPECT_EQ(global.programLowerBound(), 68u);
}

TEST(MakespanBoundAnalysis, WidthQueryMatchesLeafBound)
{
    Program prog = serialProgram();
    MakespanBoundAnalysis analysis(prog, MultiSimdArch(4),
                                   CommMode::None);
    ModuleId chain = 0;
    ASSERT_TRUE(prog.module(chain).isLeaf());
    for (unsigned w = 1; w <= 4; ++w) {
        MultiSimdArch sub(w);
        EXPECT_EQ(analysis.lowerBoundAt(chain, w),
                  computeLeafBounds(prog.module(chain), sub).composite());
    }
    // Non-leaf width query is non-increasing.
    ModuleId top = prog.entry();
    EXPECT_GE(analysis.lowerBoundAt(top, 1),
              analysis.lowerBoundAt(top, 4));
}

// ---------------------------------------------------------------------
// The checker on real and corrupted schedules.
// ---------------------------------------------------------------------

TEST(BoundChecker, CoarseSchedulesPassCleanWithGapReport)
{
    Program prog = serialProgram();
    MultiSimdArch arch(4);
    LpfsScheduler leaf;
    CoarseScheduler coarse(arch, leaf, CommMode::Global);
    ProgramSchedule psched = coarse.schedule(prog);

    DiagnosticEngine diags;
    ProgramGapReport report;
    BoundCheckStats stats;
    EXPECT_TRUE(checkScheduleBounds(prog, psched, arch, CommMode::Global,
                                    diags, &report, &stats));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_GT(stats.dimsChecked, 0u);
    EXPECT_EQ(stats.leavesChecked, 1u);
    ASSERT_EQ(report.leaves.size(), 1u);
    EXPECT_GE(report.leaves[0].gap, 1.0);
    EXPECT_GE(report.programGap, 1.0);
    EXPECT_EQ(report.programMakespan, psched.totalCycles);
}

TEST(BoundChecker, CorruptProgramScheduleTripsB004AndB005)
{
    Program prog;
    ModuleId chain = prog.addModule("chain");
    {
        Module &mod = prog.module(chain);
        QubitId q = mod.addLocal("q");
        for (int i = 0; i < 10; ++i)
            mod.addGate(GateKind::H, {q});
    }
    prog.setEntry(chain);

    // Hand-forge a schedule claiming half the certified minimum.
    ProgramSchedule psched;
    psched.modules.resize(1);
    psched.modules[0].analyzed = true;
    psched.modules[0].leaf = true;
    psched.modules[0].dims = {{1, 5}};
    psched.totalCycles = 5;

    DiagnosticEngine diags;
    ProgramGapReport report;
    EXPECT_FALSE(checkScheduleBounds(prog, psched, MultiSimdArch(1),
                                     CommMode::None, diags, &report));
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundDimBelowBound));
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundProgramBelow));
    ASSERT_EQ(report.leaves.size(), 1u);
    EXPECT_LT(report.leaves[0].gap, 1.0); // the tell-tale of corruption

    // B004 holds a leaf dimension against the composite bound, so it
    // catches a schedule that only the interval bound rules out. Under
    // CommMode::None a leaf dimension's length is its compute steps; the
    // pinch leaf at k=1, d=3 has critical-path and resource bounds 5 but
    // interval bound 6, and the same 5-cycle dimension is now one step
    // short of the interval bound alone.
    Program pinch;
    ModuleId leaf = pinch.addModule("pinch");
    pinch.module(leaf) = toffoliPinch();
    pinch.setEntry(leaf);
    const MultiSimdArch narrow(1, 3);
    const MakespanBounds bounds =
        computeLeafBounds(pinch.module(leaf), narrow);
    ASSERT_LE(bounds.criticalPath, 5u);
    ASSERT_LE(bounds.resource, 5u);
    ASSERT_EQ(bounds.interval, 6u);
    DiagnosticEngine pinch_diags;
    EXPECT_FALSE(checkScheduleBounds(pinch, psched, narrow, CommMode::None,
                                     pinch_diags));
    EXPECT_TRUE(hasCode(pinch_diags, DiagCode::BoundDimBelowBound));

    // At the interval bound itself (the 6-step witness of
    // LeafBounds.IntervalBeatsCriticalPathAndResource) it passes.
    psched.modules[0].dims = {{1, 6}};
    psched.totalCycles = 6;
    pinch_diags.clear();
    EXPECT_TRUE(checkScheduleBounds(pinch, psched, narrow, CommMode::None,
                                    pinch_diags));
}

// ---------------------------------------------------------------------
// Saturating repeat algebra (B006) and gap arithmetic.
// ---------------------------------------------------------------------

/**
 * Chain m0 <- m1 <- ... <- m7 (entry), every call repeating 2^30 at
 * line 100 + caller level; m0 is one H. Each analysis clips at one
 * level: invocation counts at m3's call (m2 would run 2^150 > 2^128
 * times), bounds at m3's call (a weight near 2^91 > 2^64), summaries at
 * m5's call (2^150 gates).
 */
Program
overflowProgram()
{
    Program prog;
    ModuleId callee = prog.addModule("m0");
    prog.module(callee).addParam("q");
    prog.module(callee).addGate(GateKind::H, {0});
    for (unsigned level = 1; level <= 7; ++level) {
        ModuleId id = prog.addModule("m" + std::to_string(level));
        Module &mod = prog.module(id);
        if (level < 7)
            mod.addParam("q");
        else
            mod.addLocal("q");
        Operation call =
            Operation::makeCall(callee, {0}, uint64_t(1) << 30);
        call.line = 100 + level;
        mod.addRawOperation(std::move(call));
        callee = id;
    }
    prog.setEntry(callee);
    return prog;
}

/** The @p code warnings in @p diags, as "module:line". */
std::vector<std::string>
warningSites(const DiagnosticEngine &diags, DiagCode code)
{
    std::vector<std::string> sites;
    for (const Diagnostic &d : diags.diagnostics()) {
        if (d.code != code)
            continue;
        EXPECT_EQ(d.severity, Severity::Warning);
        sites.push_back(d.where.module + ":" + std::to_string(d.where.line));
    }
    return sites;
}

TEST(RepeatOverflow, InvocationCountsSaturateWithDiagnostic)
{
    Program prog = overflowProgram();
    DiagnosticEngine diags;
    ResourceEstimator counts(prog, &diags);
    EXPECT_EQ(counts.invocations(prog.findModule("m3")),
              Count(uint64_t(1) << 60) * (uint64_t(1) << 60));
    EXPECT_TRUE(counts.invocations(prog.findModule("m2")).saturated());
    EXPECT_EQ(counts.invocations(prog.findModule("m0")), Count::max());
    // One warning, at the call site that clipped (line included); the
    // callees below it run a clipped count without reporting again.
    EXPECT_EQ(warningSites(diags, DiagCode::BoundRepeatOverflow),
              std::vector<std::string>{"m3:103"});
    EXPECT_EQ(diags.numErrors(), 0u); // warning, not error
}

TEST(RepeatOverflow, BoundCompositionSaturatesSoundly)
{
    Program prog = overflowProgram();
    DiagnosticEngine diags;
    MakespanBoundAnalysis analysis(prog, MultiSimdArch(2),
                                   CommMode::Global, &diags);
    EXPECT_TRUE(analysis.saturated());
    // Clipped once, where the weight first passes 2^64-1; the callers
    // above it hold 2^64-1 without reporting again.
    EXPECT_EQ(warningSites(diags, DiagCode::BoundRepeatOverflow),
              std::vector<std::string>{"m3:103"});
    // Saturated, but still a sound (huge) lower bound.
    EXPECT_EQ(analysis.programLowerBound(),
              std::numeric_limits<uint64_t>::max());
}

TEST(RepeatOverflow, SummaryCompositionWarnsOnceAtFirstClip)
{
    Program prog = overflowProgram();
    DiagnosticEngine diags;
    ScheduleSummaryAnalysis analysis(
        prog, CommMode::Global,
        [](const Module &mod, ModuleId) {
            const MultiSimdArch arch(2);
            return summarizeLeafSchedule(
                RcpScheduler().schedule(mod, arch), arch);
        },
        &diags);
    EXPECT_FALSE(analysis.summary(prog.findModule("m4")).saturated());
    EXPECT_EQ(analysis.summary(prog.findModule("m4")).gateOps,
              Count(uint64_t(1) << 60) * (uint64_t(1) << 60));
    EXPECT_TRUE(analysis.programSummary().saturated());
    EXPECT_EQ(warningSites(diags, DiagCode::EstimateSaturated),
              std::vector<std::string>{"m5:105"});
}

TEST(OptimalityGap, Arithmetic)
{
    EXPECT_EQ(optimalityGap(0, 0), 1.0);
    EXPECT_EQ(optimalityGap(10, 5), 2.0);
    EXPECT_EQ(optimalityGap(5, 5), 1.0);
    EXPECT_TRUE(std::isinf(optimalityGap(5, 0)));
    // msq-served prints that gap as 0.
    EXPECT_EQ(jsonNumber(optimalityGap(5, 0)), "0");
}

TEST(LeafCache, MemoizedResultCarriesBounds)
{
    // The coarse scheduler memoizes bounds with the schedule: a shared
    // cache serving a second identical run must hand back non-trivial
    // bounds without recomputation.
    Program prog = serialProgram();
    MultiSimdArch arch(2);
    LpfsScheduler leaf;
    CoarseScheduler::Options options;
    options.leafCache = std::make_shared<LeafScheduleCache>();
    CoarseScheduler coarse(arch, leaf, CommMode::Global, options);
    coarse.schedule(prog);
    EXPECT_GT(options.leafCache->size(), 0u);
    CoarseScheduler again(arch, leaf, CommMode::Global, options);
    again.schedule(prog);
    EXPECT_GT(options.leafCache->hits(), 0u);
}

} // namespace
