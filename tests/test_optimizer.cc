/**
 * @file
 * Tests for the inverse-cancellation peephole pass.
 */

#include <gtest/gtest.h>

#include <functional>

#include "passes/cancel_inverses.hh"
#include "support/logging.hh"

namespace {

using namespace msq;

Program
singleModule(std::function<void(Module &)> fill)
{
    Program prog;
    ModuleId id = prog.addModule("m");
    fill(prog.module(id));
    prog.setEntry(id);
    return prog;
}

TEST(CancelInverses, SelfInversePairRemoved)
{
    Program prog = singleModule([](Module &mod) {
        auto reg = mod.addRegister("q", 2);
        mod.addGate(GateKind::H, {reg[0]});
        mod.addGate(GateKind::H, {reg[0]});
        mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
        mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    });
    CancelInversesPass pass;
    pass.run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 0u);
    EXPECT_EQ(pass.totalRemoved(), 4u);
}

TEST(CancelInverses, DaggerPairsRemoved)
{
    Program prog = singleModule([](Module &mod) {
        QubitId q = mod.addLocal("q");
        mod.addGate(GateKind::T, {q});
        mod.addGate(GateKind::Tdag, {q});
        mod.addGate(GateKind::Sdag, {q});
        mod.addGate(GateKind::S, {q});
    });
    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 0u);
}

TEST(CancelInverses, OppositeRotationsCancel)
{
    Program prog = singleModule([](Module &mod) {
        QubitId q = mod.addLocal("q");
        mod.addGate(GateKind::Rz, {q}, 0.5);
        mod.addGate(GateKind::Rz, {q}, -0.5);
        mod.addGate(GateKind::Rx, {q}, 0.5);
        mod.addGate(GateKind::Rx, {q}, 0.25); // does not cancel
    });
    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 2u);
}

TEST(CancelInverses, InterveningUseBlocksCancellation)
{
    Program prog = singleModule([](Module &mod) {
        QubitId q = mod.addLocal("q");
        mod.addGate(GateKind::H, {q});
        mod.addGate(GateKind::T, {q}); // between the pair
        mod.addGate(GateKind::H, {q});
    });
    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 3u);
}

TEST(CancelInverses, UnrelatedQubitDoesNotBlock)
{
    Program prog = singleModule([](Module &mod) {
        auto reg = mod.addRegister("q", 2);
        mod.addGate(GateKind::H, {reg[0]});
        mod.addGate(GateKind::T, {reg[1]}); // other qubit
        mod.addGate(GateKind::H, {reg[0]});
    });
    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 1u);
}

TEST(CancelInverses, OperandOrderMatters)
{
    // CNOT(a,b) then CNOT(b,a) do not cancel.
    Program prog = singleModule([](Module &mod) {
        auto reg = mod.addRegister("q", 2);
        mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
        mod.addGate(GateKind::CNOT, {reg[1], reg[0]});
    });
    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 2u);
}

TEST(CancelInverses, MeasurementNeverCancels)
{
    Program prog = singleModule([](Module &mod) {
        QubitId q = mod.addLocal("q");
        mod.addGate(GateKind::MeasZ, {q});
        mod.addGate(GateKind::MeasZ, {q});
        mod.addGate(GateKind::PrepZ, {q});
        mod.addGate(GateKind::PrepZ, {q});
    });
    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 4u);
}

TEST(CancelInverses, NestedPairsConvergeAcrossSweeps)
{
    // H T Tdag H collapses completely, needing two sweeps.
    Program prog = singleModule([](Module &mod) {
        QubitId q = mod.addLocal("q");
        mod.addGate(GateKind::H, {q});
        mod.addGate(GateKind::T, {q});
        mod.addGate(GateKind::Tdag, {q});
        mod.addGate(GateKind::H, {q});
    });
    CancelInversesPass pass;
    pass.run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 0u);
    EXPECT_EQ(pass.totalRemoved(), 4u);
}

TEST(CancelInverses, CallsActAsBarriers)
{
    Program prog;
    ModuleId callee = prog.addModule("callee");
    prog.module(callee).addParam("q");
    prog.module(callee).addGate(GateKind::T, {0});
    ModuleId top = prog.addModule("top");
    Module &mod = prog.module(top);
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::H, {q});
    mod.addCall(callee, {q});
    mod.addGate(GateKind::H, {q});
    prog.setEntry(top);

    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(top).numOps(), 3u);
}

TEST(CancelInverses, CtqgComputeUncomputeShrinks)
{
    // A typical CTQG pattern: X-dress, nothing in between after
    // inlining, X-undress.
    Program prog = singleModule([](Module &mod) {
        auto reg = mod.addRegister("q", 4);
        for (QubitId q : reg)
            mod.addGate(GateKind::X, {q});
        mod.addGate(GateKind::Toffoli, {reg[0], reg[1], reg[2]});
        mod.addGate(GateKind::Toffoli, {reg[0], reg[1], reg[2]});
        for (QubitId q : reg)
            mod.addGate(GateKind::X, {q});
    });
    CancelInversesPass().run(prog);
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 0u);
}

} // namespace
