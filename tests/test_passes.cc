/**
 * @file
 * Tests for the decomposition and flattening passes: the Fig. 4 Toffoli
 * expansion, rotation sequences (determinism, length scaling, outlining),
 * FTh-driven flattening, and pass-manager plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/resource_estimator.hh"
#include "core/toolflow.hh"
#include "passes/decompose_toffoli.hh"
#include "passes/flatten.hh"
#include "passes/pass_manager.hh"
#include "passes/rotation_decomposer.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

// --- Toffoli decomposition ---

TEST(DecomposeToffoli, Fig4Sequence)
{
    // The exact 16-op expansion shown in paper Fig. 4.
    std::vector<Operation> out;
    DecomposeToffoliPass::expandToffoli(0, 1, 2, out);
    ASSERT_EQ(out.size(), 16u);
    using GK = GateKind;
    const GK expected_kinds[16] = {
        GK::H,    GK::CNOT, GK::Tdag, GK::CNOT, GK::T,    GK::CNOT,
        GK::Tdag, GK::CNOT, GK::Tdag, GK::T,    GK::CNOT, GK::H,
        GK::Tdag, GK::CNOT, GK::T,    GK::S,
    };
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i].kind, expected_kinds[i]) << "op " << i;
    // Spot-check operands: first CNOT is (b, c), last S is on b.
    EXPECT_EQ(out[1].operands, (std::vector<QubitId>{1, 2}));
    EXPECT_EQ(out[15].operands, (std::vector<QubitId>{1}));
}

TEST(DecomposeToffoli, RewritesModules)
{
    Program prog;
    ModuleId id = prog.addModule("m");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 3);
    mod.addGate(GateKind::Toffoli, {reg[0], reg[1], reg[2]});
    mod.addGate(GateKind::Swap, {reg[0], reg[1]});
    mod.addGate(GateKind::H, {reg[2]});
    prog.setEntry(id);

    DecomposeToffoliPass pass;
    pass.run(prog);
    EXPECT_EQ(mod.numOps(), 16u + 3u + 1u);
    for (const auto &op : mod.ops())
        EXPECT_TRUE(isPrimitiveGate(op.kind))
            << gateName(op.kind);
}

TEST(DecomposeToffoli, FredkinExpands)
{
    std::vector<Operation> out;
    DecomposeToffoliPass::expandFredkin(0, 1, 2, out);
    EXPECT_EQ(out.size(), 18u); // CNOT + 16 + CNOT
    EXPECT_EQ(out.front().kind, GateKind::CNOT);
    EXPECT_EQ(out.back().kind, GateKind::CNOT);
}

TEST(DecomposeToffoli, LeavesPrimitivesAlone)
{
    Program prog;
    ModuleId id = prog.addModule("m");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    prog.setEntry(id);
    DecomposeToffoliPass().run(prog);
    EXPECT_EQ(mod.numOps(), 1u);
}

// --- Rotation decomposition ---

TEST(RotationDecomposer, SequenceIsDeterministic)
{
    auto s1 = RotationDecomposerPass::sequenceForAngle(GateKind::Rz, 0.7,
                                                       100);
    auto s2 = RotationDecomposerPass::sequenceForAngle(GateKind::Rz, 0.7,
                                                       100);
    EXPECT_EQ(s1, s2);
    auto s3 = RotationDecomposerPass::sequenceForAngle(GateKind::Rz, 0.8,
                                                       100);
    EXPECT_NE(s1, s3);
    auto s4 = RotationDecomposerPass::sequenceForAngle(GateKind::Rx, 0.7,
                                                       100);
    EXPECT_NE(s1, s4);
}

/**
 * Sequences pinned by value: the FNV-1a hash of each sequence's gate
 * kinds for every axis x angle x length. The rows are the axes
 * {Rx, Ry, Rz} x angles {0.7, -2.5, 1e-9, pi/2^20}; the columns the
 * lengths {1, 2, 3, 407, 2000}. Any change to the draw, the seed or the
 * cancellation rule moves a digest.
 */
TEST(RotationDecomposer, SequencesMatchPinnedDigests)
{
    const GateKind axes[] = {GateKind::Rx, GateKind::Ry, GateKind::Rz};
    const double angles[] = {0.7, -2.5, 1e-9, std::ldexp(M_PI, -20)};
    const unsigned lengths[] = {1, 2, 3, 407, 2000};
    const uint64_t digests[12][5] = {
        {0xaf63bd4c8601b7dfull, 0x08328207b4eb65bbull, 0xd938ab186bfdd7a8ull,
         0x7438fab9ea996de7ull, 0x58e4668b08094480ull},
        {0xaf63bf4c8601bb45ull, 0x08395207b4f132d9ull, 0xea993f1875d96bd4ull,
         0xe9305e5caf718204ull, 0x40ee2688e3b42c21ull},
        {0xaf63b94c8601b113ull, 0x0824f207b4dfe6afull, 0xb6adec185874f12bull,
         0x07ca234f843093ffull, 0x478a7659a722dbdcull},
        {0xaf63bb4c8601b479ull, 0x082bbd07b4e5ab4eull, 0xc7fd7c1862420b58ull,
         0xa6218f80f73104a3ull, 0x0ab154810748bd17ull},
        {0xaf63bd4c8601b7dfull, 0x08328307b4eb676eull, 0xd93c12186c00bc84ull,
         0xbeb5cf4e08746986ull, 0x68d4aebab0b65d67ull},
        {0xaf63bf4c8601bb45ull, 0x08395507b4f137f2ull, 0xeaa36c1875e20cd0ull,
         0x1241df4e45167dacull, 0x03b7f0a92bbc16fcull},
        {0xaf63bb4c8601b479ull, 0x082bc007b4e5b067ull, 0xc807b018624ab839ull,
         0x84a343c408b18c57ull, 0xbd6c3d91e80799f5ull},
        {0xaf63bf4c8601bb45ull, 0x08395507b4f137f2ull, 0xeaa3701875e2139cull,
         0x51db8ba0ee185c2cull, 0xb3b78cfb636f7289ull},
        {0xaf63b84c8601af60ull, 0x08218f07b4dd089full, 0xae0ea7185395a2c7ull,
         0xd6f9a97254d921d2ull, 0x971f3714aec0a3c3ull},
        {0xaf63bf4c8601bb45ull, 0x08394f07b4f12dc0ull, 0xea8f0d1875d0c259ull,
         0x453dc14d2f7966deull, 0xe59341876ab249f6ull},
        {0xaf63bf4c8601bb45ull, 0x08395107b4f13126ull, 0xea95d51875d681dfull,
         0x63b31cf30d7c2249ull, 0x17d6323bb3e2d759ull},
        {0xaf63be4c8601b992ull, 0x0835f107b4ee582full, 0xe200bb1870ffd111ull,
         0x2d26a89a05090b3eull, 0x95eddb83cfb23c79ull},
    };
    static_assert(sizeof(GateKind) == 1);
    for (size_t a = 0; a < 3; ++a) {
        for (size_t b = 0; b < 4; ++b) {
            for (size_t l = 0; l < 5; ++l) {
                const auto seq = RotationDecomposerPass::sequenceForAngle(
                    axes[a], angles[b], lengths[l]);
                ASSERT_EQ(seq.size(), lengths[l]);
                EXPECT_EQ(fnv1a64(seq.data(), seq.size()),
                          digests[a * 4 + b][l])
                    << gateName(axes[a]) << " angle " << angles[b]
                    << " length " << lengths[l];
            }
        }
    }
}

TEST(RotationDecomposer, NoAdjacentCancellation)
{
    auto seq = RotationDecomposerPass::sequenceForAngle(GateKind::Ry,
                                                        1.234, 2000);
    ASSERT_EQ(seq.size(), 2000u);
    for (size_t i = 1; i < seq.size(); ++i) {
        GateKind prev = seq[i - 1];
        GateKind cur = seq[i];
        bool cancels =
            (prev == cur && (cur == GateKind::H || cur == GateKind::X ||
                             cur == GateKind::Z)) ||
            (prev == GateKind::T && cur == GateKind::Tdag) ||
            (prev == GateKind::Tdag && cur == GateKind::T) ||
            (prev == GateKind::S && cur == GateKind::Sdag) ||
            (prev == GateKind::Sdag && cur == GateKind::S);
        EXPECT_FALSE(cancels) << "position " << i;
    }
}

TEST(RotationDecomposer, LengthScalesWithPrecision)
{
    RotationDecomposerPass::Config loose;
    loose.epsilon = 1e-4;
    RotationDecomposerPass::Config tight;
    tight.epsilon = 1e-14;
    EXPECT_LT(RotationDecomposerPass(loose).derivedLength(),
              RotationDecomposerPass(tight).derivedLength());
    // "Several thousand operations" ballpark at high precision (§4.2).
    EXPECT_GT(RotationDecomposerPass(tight).derivedLength(), 300u);
}

TEST(RotationDecomposer, ExplicitLengthOverrides)
{
    RotationDecomposerPass::Config config;
    config.sequenceLength = 42;
    EXPECT_EQ(RotationDecomposerPass(config).derivedLength(), 42u);
}

TEST(RotationDecomposer, BadEpsilonFatal)
{
    RotationDecomposerPass::Config config;
    config.epsilon = 0.0;
    EXPECT_THROW(
        {
            RotationDecomposerPass pass(config);
            (void)pass;
        },
        FatalError);
}

Program
rotationProgram()
{
    Program prog;
    ModuleId id = prog.addModule("m");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::Rz, {reg[0]}, 0.5);
    mod.addGate(GateKind::Rz, {reg[1]}, 0.5);
    mod.addGate(GateKind::Rz, {reg[0]}, 0.25);
    prog.setEntry(id);
    return prog;
}

TEST(RotationDecomposer, InlineModeExpandsInPlace)
{
    Program prog = rotationProgram();
    RotationDecomposerPass::Config config;
    config.sequenceLength = 10;
    RotationDecomposerPass(config).run(prog);
    const Module &mod = prog.module(prog.entry());
    EXPECT_EQ(mod.numOps(), 30u);
    EXPECT_TRUE(mod.isLeaf());
    EXPECT_EQ(prog.numModules(), 1u);
    // Each rotation became its sequence, gate by gate, on its target.
    const std::pair<QubitId, double> rotations[] = {
        {0, 0.5}, {1, 0.5}, {0, 0.25}};
    size_t i = 0;
    for (const auto &[target, angle] : rotations)
        for (GateKind g : RotationDecomposerPass::sequenceForAngle(
                 GateKind::Rz, angle, 10))
            EXPECT_EQ(mod.op(i++), Operation(g, {target})) << i;
}

TEST(RotationDecomposer, OutlineModeSharesAngleModules)
{
    Program prog = rotationProgram();
    RotationDecomposerPass::Config config;
    config.sequenceLength = 10;
    config.outline = true;
    RotationDecomposerPass(config).run(prog);
    // Two distinct angles -> two outlined modules.
    EXPECT_EQ(prog.numModules(), 3u);
    const Module &mod = prog.module(prog.entry());
    EXPECT_EQ(mod.numOps(), 3u);
    const double angles[] = {0.5, 0.5, 0.25};
    for (size_t i = 0; i < mod.numOps(); ++i) {
        const Operation &op = mod.op(i);
        ASSERT_TRUE(op.isCall());
        const Module &callee = prog.module(op.callee);
        EXPECT_EQ(callee.numOps(), 10u);
        EXPECT_TRUE(callee.noInline());
        // The body is the sequence, gate by gate, on the parameter.
        const auto seq = RotationDecomposerPass::sequenceForAngle(
            GateKind::Rz, angles[i], 10);
        for (size_t j = 0; j < seq.size(); ++j)
            EXPECT_EQ(callee.op(j), Operation(seq[j], {0})) << i << j;
    }
    prog.validate();
}

// --- Flattening ---

Program
threeLevelProgram()
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        QubitId anc = mod.addLocal("anc");
        mod.addGate(GateKind::H, {q});
        mod.addGate(GateKind::CNOT, {q, anc});
    }
    ModuleId mid = prog.addModule("mid");
    {
        Module &mod = prog.module(mid);
        QubitId q = mod.addParam("q");
        mod.addGate(GateKind::T, {q});
        mod.addCall(leaf, {q}, 3);
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(mid, {q}, 2);
    }
    prog.setEntry(top);
    return prog;
}

TEST(Flatten, BelowThresholdBecomesLeaf)
{
    Program prog = threeLevelProgram();
    FlattenPass(1000).run(prog);
    // Everything is tiny: all modules flatten.
    const Module &top = prog.module(prog.findModule("top"));
    EXPECT_TRUE(top.isLeaf());
    // top = 2 * (1 + 3*2) = 14 gates.
    EXPECT_EQ(top.localGateCount(), 14u);
    prog.validate();
}

TEST(Flatten, AboveThresholdStaysModular)
{
    Program prog = threeLevelProgram();
    FlattenPass(4).run(prog);
    // mid totals 7 gates > 4: stays modular; leaf (2 gates) already leaf.
    const Module &mid = prog.module(prog.findModule("mid"));
    EXPECT_FALSE(mid.isLeaf());
    const Module &top = prog.module(prog.findModule("top"));
    EXPECT_FALSE(top.isLeaf());
}

TEST(Flatten, ThresholdBetweenLevels)
{
    Program prog = threeLevelProgram();
    FlattenPass(10).run(prog);
    // mid totals 7 <= 10 -> flattens into a 7-gate leaf; top totals
    // 14 > 10 -> keeps its calls to the (now-leaf) mid.
    const Module &mid = prog.module(prog.findModule("mid"));
    EXPECT_TRUE(mid.isLeaf());
    EXPECT_EQ(mid.localGateCount(), 7u);
    const Module &top = prog.module(prog.findModule("top"));
    EXPECT_FALSE(top.isLeaf());
    ResourceEstimator res(prog);
    EXPECT_EQ(res.programGates(), 14u);
}

TEST(Flatten, GateCountPreserved)
{
    for (uint64_t threshold : {1u, 5u, 8u, 100u}) {
        Program prog = threeLevelProgram();
        const Count before = ResourceEstimator(prog).programGates();
        FlattenPass(threshold).run(prog);
        EXPECT_EQ(ResourceEstimator(prog).programGates(), before)
            << "threshold " << threshold;
    }
}

TEST(Flatten, NoInlineModulesKeptAsCalls)
{
    Program prog = threeLevelProgram();
    prog.module(prog.findModule("leaf")).setNoInline(true);
    FlattenPass(1000).run(prog);
    const Module &mid = prog.module(prog.findModule("mid"));
    EXPECT_FALSE(mid.isLeaf());
    unsigned calls = 0;
    for (const auto &op : mid.ops())
        if (op.isCall())
            ++calls;
    EXPECT_EQ(calls, 1u); // repeat count preserved on the kept call
    prog.validate();
}

/** main calls a 5-parameter leaf (more arguments than any gate has
 * operands, so the call's list is on the heap) twice. */
Program
wideCallProgram(bool no_inline)
{
    Program prog;
    ModuleId leaf = prog.addModule("wide");
    {
        Module &mod = prog.module(leaf);
        std::vector<QubitId> p;
        for (int i = 0; i < 5; ++i)
            p.push_back(mod.addParam("p" + std::to_string(i)));
        mod.addGate(GateKind::Toffoli, {p[0], p[1], p[4]});
        mod.addGate(GateKind::CNOT, {p[3], p[2]});
        mod.setNoInline(no_inline);
    }
    ModuleId top = prog.addModule("main");
    {
        Module &mod = prog.module(top);
        auto reg = mod.addRegister("r", 6);
        mod.addCall(leaf, {reg[5], reg[4], reg[3], reg[2], reg[1]}, 2);
    }
    prog.setEntry(top);
    return prog;
}

TEST(Flatten, CallWithMoreArgsThanWidestGate)
{
    Program inlined = wideCallProgram(false);
    EXPECT_TRUE(inlined.module(inlined.entry()).op(0).operands.onHeap());
    FlattenPass(1000).run(inlined);
    const Module &flat = inlined.module(inlined.entry());
    ASSERT_TRUE(flat.isLeaf());
    ASSERT_EQ(flat.numOps(), 4u); // two repeats of two gates
    for (size_t rep = 0; rep < 2; ++rep) {
        const Operation &toffoli = flat.op(2 * rep);
        const Operation &cnot = flat.op(2 * rep + 1);
        EXPECT_EQ(toffoli.kind, GateKind::Toffoli);
        EXPECT_EQ(toffoli.operands, (std::vector<QubitId>{5, 4, 1}));
        EXPECT_EQ(cnot.operands, (std::vector<QubitId>{2, 3}));
        EXPECT_FALSE(toffoli.operands.onHeap());
    }
    inlined.validate();

    Program kept = wideCallProgram(true);
    FlattenPass(1000).run(kept);
    const Operation &call = kept.module(kept.entry()).op(0);
    ASSERT_TRUE(call.isCall());
    EXPECT_EQ(call.repeat, 2u);
    EXPECT_EQ(call.operands, (std::vector<QubitId>{5, 4, 3, 2, 1}));
    EXPECT_TRUE(call.operands.onHeap());
    kept.validate();
}

TEST(Flatten, InlinedAncillaGetFreshNames)
{
    Program prog = threeLevelProgram();
    FlattenPass(1000).run(prog);
    const Module &top = prog.module(prog.findModule("top"));
    // top had 1 local; inlining adds ancilla per call site.
    EXPECT_GT(top.numQubits(), 1u);
    prog.validate();
}

// --- Pass manager ---

class CountingPass : public Pass
{
  public:
    explicit CountingPass(int &counter) : counter(counter) {}
    const char *name() const override { return "counting"; }
    void run(Program &) override { ++counter; }

  private:
    int &counter;
};

TEST(PassManager, RunsPassesInOrder)
{
    Program prog = threeLevelProgram();
    int count = 0;
    PassManager pm;
    pm.add(std::make_unique<CountingPass>(count));
    pm.add(std::make_unique<CountingPass>(count));
    pm.run(prog);
    EXPECT_EQ(count, 2);
}

/** Every module's call index equals a scan of its ops after each
 * lowering pass, on every scaled workload (Shor's with the outlined
 * rotation preset). */
TEST(PassManager, CallIndexInSyncAfterEveryLoweringPass)
{
    auto expect_in_sync = [](const Program &prog, const char *after) {
        for (ModuleId id = 0; id < prog.numModules(); ++id) {
            const Module &mod = prog.module(id);
            std::vector<uint32_t> calls;
            for (uint32_t i = 0; i < mod.numOps(); ++i)
                if (mod.op(i).isCall())
                    calls.push_back(i);
            ASSERT_EQ(mod.callOps(), calls) << mod.name() << " after "
                                            << after;
            ASSERT_EQ(mod.isLeaf(), calls.empty()) << mod.name();
        }
    };
    for (const auto &spec : workloads::scaledParams()) {
        SCOPED_TRACE(spec.shortName);
        Program prog = spec.build();
        expect_in_sync(prog, "build");
        std::vector<std::unique_ptr<Pass>> passes;
        passes.push_back(std::make_unique<DecomposeToffoliPass>());
        passes.push_back(std::make_unique<RotationDecomposerPass>(
            Toolflow::rotationPresetFor(spec.shortName)));
        passes.push_back(
            std::make_unique<FlattenPass>(ToolflowConfig{}.flattenThreshold));
        for (const auto &pass : passes) {
            pass->run(prog);
            expect_in_sync(prog, pass->name());
        }
    }
}

} // namespace
