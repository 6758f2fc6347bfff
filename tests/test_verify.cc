/**
 * @file
 * Tests for the static-analysis subsystem: the DiagnosticEngine, the IR
 * verifier, the circuit linter, the coarse-schedule validator, and the
 * frontend / PassManager integration points.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "frontend/qasm_reader.hh"
#include "passes/pass_manager.hh"
#include "sched/lpfs.hh"
#include "sched/validator.hh"
#include "support/logging.hh"
#include "verify/linter.hh"
#include "verify/verifier.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

// --- DiagnosticEngine ---

TEST(DiagnosticEngine, CollectModeRecordsEverything)
{
    DiagnosticEngine diags;
    diags.error(DiagCode::GateArity, "first");
    diags.error(DiagCode::DuplicateOperand, "second");
    diags.warning(DiagCode::UnusedQubit, "third");
    EXPECT_EQ(diags.numErrors(), 2u);
    EXPECT_EQ(diags.numWarnings(), 1u);
    std::vector<DiagCode> codes;
    for (const Diagnostic &diag : diags.diagnostics())
        codes.push_back(diag.code);
    EXPECT_EQ(codes, (std::vector<DiagCode>{DiagCode::GateArity,
                                            DiagCode::DuplicateOperand,
                                            DiagCode::UnusedQubit}));
    EXPECT_TRUE(diags.has(DiagCode::GateArity));
    EXPECT_FALSE(diags.has(DiagCode::RecursiveCall));
}

TEST(DiagnosticEngine, PanicModeThrowsOnFirstError)
{
    DiagnosticEngine diags(DiagnosticEngine::FailMode::Panic);
    diags.warning(DiagCode::UnusedQubit, "warnings never throw");
    EXPECT_THROW(diags.error(DiagCode::GateArity, "boom"), PanicError);
}

TEST(DiagnosticEngine, FatalModeThrowsOnFirstError)
{
    DiagnosticEngine diags(DiagnosticEngine::FailMode::Fatal);
    EXPECT_THROW(diags.error(DiagCode::GateArity, "boom"), FatalError);
}

TEST(DiagnosticEngine, FormatIncludesCodeAndLocation)
{
    Diagnostic diag{DiagCode::DuplicateOperand, Severity::Error,
                    {"main", 2, 7}, "CNOT touches qubit 0 twice"};
    std::string text = diag.format();
    EXPECT_NE(text.find("V003"), std::string::npos);
    EXPECT_NE(text.find("module main"), std::string::npos);
    EXPECT_NE(text.find("op 2"), std::string::npos);
    EXPECT_NE(text.find("line 7"), std::string::npos);
    EXPECT_NE(text.find("error"), std::string::npos);
}

// --- IR verifier: one bad-input test per diagnostic code ---

TEST(Verifier, FlagsWrongGateArity)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addRawOperation(Operation(GateKind::H, {reg[0], reg[1]}));
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::GateArity));
}

TEST(Verifier, FlagsOperandOutOfRange)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    mod.addLocal("q");
    mod.addRawOperation(Operation(GateKind::X, {42}));
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::OperandOutOfRange));
}

TEST(Verifier, FlagsDuplicateOperand)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    mod.addRawOperation(Operation(GateKind::CNOT, {q, q}));
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::DuplicateOperand));
}

TEST(Verifier, FlagsMissingEntry)
{
    Program prog;
    prog.addModule("not_main");

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::NoEntryModule));
}

TEST(Verifier, FlagsBadCallee)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    prog.module(id).addRawOperation(Operation::makeCall(57, {}));
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::BadCallee));
}

TEST(Verifier, FlagsCallArityMismatch)
{
    Program prog;
    ModuleId callee = prog.addModule("kernel");
    prog.module(callee).addParam("a");
    prog.module(callee).addParam("b");
    ModuleId entry = prog.addModule("main");
    Module &mod = prog.module(entry);
    QubitId q = mod.addLocal("q");
    mod.addRawOperation(Operation::makeCall(callee, {q}));
    prog.setEntry(entry);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::CallArity));
}

TEST(Verifier, FlagsRecursiveCallCycle)
{
    Program prog;
    ModuleId a = prog.addModule("a");
    ModuleId b = prog.addModule("b");
    prog.module(a).addRawOperation(Operation::makeCall(b, {}));
    prog.module(b).addRawOperation(Operation::makeCall(a, {}));
    prog.setEntry(a);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::RecursiveCall));
}

TEST(Verifier, FlagsSelfRecursion)
{
    Program prog;
    ModuleId a = prog.addModule("a");
    prog.module(a).addRawOperation(Operation::makeCall(a, {}));
    prog.setEntry(a);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::RecursiveCall));
}

TEST(Verifier, FlagsZeroRepeatCall)
{
    Program prog;
    ModuleId callee = prog.addModule("kernel");
    ModuleId entry = prog.addModule("main");
    Operation call = Operation::makeCall(callee, {});
    call.repeat = 0;
    prog.module(entry).addRawOperation(std::move(call));
    prog.setEntry(entry);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::BadRepeat));
}

TEST(Verifier, FlagsUseAfterMeasure)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::MeasZ, {q});
    mod.addGate(GateKind::H, {q});
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::UseAfterMeasure));
}

TEST(Verifier, PrepClearsMeasuredState)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::MeasZ, {q});
    mod.addGate(GateKind::PrepZ, {q});
    mod.addGate(GateKind::H, {q});
    mod.addGate(GateKind::MeasZ, {q});
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_TRUE(verifyProgram(prog, diags));
    EXPECT_FALSE(diags.hasErrors());
}

TEST(Verifier, FlagsMalformedGateWithCallee)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    Operation op(GateKind::X, {q});
    op.callee = 0;
    mod.addRawOperation(std::move(op));
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::MalformedOperation));
}

TEST(Verifier, WarnsOnAngleOnNonRotation)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    Operation op(GateKind::H, {q}, 0.5);
    mod.addRawOperation(std::move(op));
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_TRUE(verifyProgram(prog, diags)); // warning, not error
    EXPECT_TRUE(diags.has(DiagCode::AngleOnNonRotation));
    EXPECT_EQ(diags.numWarnings(), 1u);
}

TEST(Verifier, FlagsDuplicateCallArg)
{
    Program prog;
    ModuleId callee = prog.addModule("kernel");
    prog.module(callee).addParam("a");
    prog.module(callee).addParam("b");
    ModuleId entry = prog.addModule("main");
    Module &mod = prog.module(entry);
    QubitId q = mod.addLocal("q");
    mod.addRawOperation(Operation::makeCall(callee, {q, q}));
    prog.setEntry(entry);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_TRUE(diags.has(DiagCode::DuplicateCallArg));
}

TEST(Verifier, ReportsAllViolationsNotJustTheFirst)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addRawOperation(Operation(GateKind::H, {reg[0], reg[1]}));
    mod.addRawOperation(Operation(GateKind::CNOT, {reg[0], reg[0]}));
    mod.addRawOperation(Operation(GateKind::X, {99}));
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_FALSE(verifyProgram(prog, diags));
    EXPECT_GE(diags.numErrors(), 3u);
    EXPECT_TRUE(diags.has(DiagCode::GateArity));
    EXPECT_TRUE(diags.has(DiagCode::DuplicateOperand));
    EXPECT_TRUE(diags.has(DiagCode::OperandOutOfRange));
}

TEST(Verifier, FatalHelperListsEveryError)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addRawOperation(Operation(GateKind::H, {reg[0], reg[1]}));
    mod.addRawOperation(Operation(GateKind::CNOT, {reg[0], reg[0]}));
    prog.setEntry(id);

    try {
        verifyProgramFatal(prog);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("V001"), std::string::npos);
        EXPECT_NE(what.find("V003"), std::string::npos);
    }
}

// --- Every seed workload must verify (and lint) cleanly ---

TEST(Verifier, AllScaledWorkloadsVerifyCleanly)
{
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = spec.build();
        DiagnosticEngine diags;
        bool ok = verifyProgram(prog, diags);
        EXPECT_TRUE(ok) << spec.name << " failed verification:\n"
                        << diags.formatAll();
        lintProgram(prog, diags); // must not crash; warnings allowed
    }
}

TEST(Verifier, AllTinyWorkloadsVerifyCleanly)
{
    for (const auto &spec : workloads::tinyParams()) {
        Program prog = spec.build();
        DiagnosticEngine diags;
        bool ok = verifyProgram(prog, diags);
        EXPECT_TRUE(ok) << spec.name << " failed verification:\n"
                        << diags.formatAll();
    }
}

TEST(Verifier, AllPaperWorkloadsVerifyCleanly)
{
    for (const auto &spec : workloads::paperParams()) {
        Program prog = spec.build();
        DiagnosticEngine diags;
        bool ok = verifyProgram(prog, diags);
        EXPECT_TRUE(ok) << spec.name << " failed verification:\n"
                        << diags.formatAll();
    }
}

// --- Circuit linter ---

TEST(Linter, FlagsUnusedQubit)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    mod.addLocal("scratch"); // never used
    mod.addGate(GateKind::H, {q});
    prog.setEntry(id);

    DiagnosticEngine diags;
    EXPECT_EQ(lintProgram(prog, diags), 1u);
    EXPECT_TRUE(diags.has(DiagCode::UnusedQubit));
}

TEST(Linter, FlagsDeadGateAfterTerminalMeasurement)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::MeasZ, {q});
    mod.addGate(GateKind::PrepZ, {q}); // reused (no V009) ...
    mod.addGate(GateKind::H, {q});     // ... but never measured again
    prog.setEntry(id);

    DiagnosticEngine verify_diags;
    EXPECT_TRUE(verifyProgram(prog, verify_diags));

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_TRUE(diags.has(DiagCode::DeadGate));
}

TEST(Linter, FlagsAdjacentInversePairs)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::T, {reg[0]});
    mod.addGate(GateKind::Tdag, {reg[0]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::Rz, {reg[1]}, 0.5);
    mod.addGate(GateKind::Rz, {reg[1]}, -0.5);
    mod.addGate(GateKind::MeasZ, {reg[0]});
    prog.setEntry(id);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    size_t inverse_pairs = 0;
    for (const auto &diag : diags.diagnostics())
        if (diag.code == DiagCode::UncancelledInverses)
            ++inverse_pairs;
    EXPECT_EQ(inverse_pairs, 3u);
}

TEST(Linter, DoesNotFlagNonAdjacentOrDifferentOperands)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::H, {reg[1]}); // different operand
    mod.addGate(GateKind::T, {reg[0]});
    mod.addGate(GateKind::H, {reg[0]}); // H..H not adjacent
    prog.setEntry(id);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_FALSE(diags.has(DiagCode::UncancelledInverses));
}

TEST(Linter, FlagsInversePairSeparatedByCommutingGates)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    // T/Tdag separated by a gate on an unrelated qubit.
    mod.addGate(GateKind::T, {reg[0]});
    mod.addGate(GateKind::X, {reg[1]});
    mod.addGate(GateKind::Tdag, {reg[0]});
    // CNOT pair separated by a Z-basis gate on the shared control.
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::S, {reg[0]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::MeasZ, {reg[0]});
    mod.addGate(GateKind::MeasZ, {reg[1]});
    prog.setEntry(id);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    size_t inverse_pairs = 0;
    for (const auto &diag : diags.diagnostics())
        if (diag.code == DiagCode::UncancelledInverses)
            ++inverse_pairs;
    EXPECT_EQ(inverse_pairs, 2u);
}

TEST(Linter, DoesNotFlagWhenInterveningGateBlocksCommutation)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    // H on the shared qubit does not commute with T: no cancellation.
    mod.addGate(GateKind::T, {reg[0]});
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::Tdag, {reg[0]});
    // X on the control anticommutes with the CNOT's Z-basis control.
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::X, {reg[0]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    mod.addGate(GateKind::MeasZ, {reg[0]});
    mod.addGate(GateKind::MeasZ, {reg[1]});
    prog.setEntry(id);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_FALSE(diags.has(DiagCode::UncancelledInverses));
}

TEST(Linter, FlagsTransitivelyUnusedQubitAcrossCalls)
{
    // L007: main's second qubit only reaches a callee that ignores it.
    Program prog;
    ModuleId callee = prog.addModule("callee");
    Module &cal = prog.module(callee);
    cal.addParam("used");
    cal.addParam("ignored");
    cal.addGate(GateKind::H, {0});
    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    m.addLocal("x");
    m.addLocal("y");
    m.addCall(callee, {0, 1});
    prog.setEntry(main);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_TRUE(diags.has(DiagCode::InterprocUnusedQubit));
}

TEST(Linter, FlagsInterproceduralUseAfterMeasure)
{
    // L008: the callee leaves its parameter measured, the caller gates
    // it afterwards. V009 cannot see this, the dominance analysis can.
    Program prog;
    ModuleId callee = prog.addModule("measure_it");
    Module &cal = prog.module(callee);
    cal.addParam("p");
    cal.addGate(GateKind::H, {0});
    cal.addGate(GateKind::MeasZ, {0});
    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    QubitId q = m.addLocal("q");
    m.addCall(callee, {q});
    m.addGate(GateKind::H, {q});
    m.addGate(GateKind::MeasZ, {q});
    prog.setEntry(main);

    // The intraprocedural verifier is happy with this program...
    DiagnosticEngine verify_diags;
    EXPECT_TRUE(verifyProgram(prog, verify_diags));

    // ...but the interprocedural lint is not.
    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_TRUE(diags.has(DiagCode::InterprocUseAfterMeasure));
}

TEST(Linter, CleanInterproceduralProgramHasNoInterprocLints)
{
    Program prog;
    ModuleId callee = prog.addModule("kernel");
    Module &cal = prog.module(callee);
    cal.addParam("p");
    cal.addGate(GateKind::H, {0});
    ModuleId main = prog.addModule("main");
    Module &m = prog.module(main);
    QubitId q = m.addLocal("q");
    m.addCall(callee, {q});
    m.addGate(GateKind::MeasZ, {q});
    prog.setEntry(main);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_FALSE(diags.has(DiagCode::InterprocUnusedQubit));
    EXPECT_FALSE(diags.has(DiagCode::InterprocUseAfterMeasure));
}

TEST(Linter, FlagsRotationBelowPrecisionFloor)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::Rz, {q}, 1e-14);
    mod.addGate(GateKind::Rz, {q}, 0.7); // fine
    prog.setEntry(id);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    size_t below = 0;
    for (const auto &diag : diags.diagnostics())
        if (diag.code == DiagCode::RotationBelowPrecision)
            ++below;
    EXPECT_EQ(below, 1u);
}

TEST(Linter, FlagsNonCoalescableGateKinds)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 8);
    for (QubitId q : reg)
        mod.addGate(GateKind::H, {q});
    mod.addGate(GateKind::T, {reg[0]}); // the only T: can't coalesce
    prog.setEntry(id);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_TRUE(diags.has(DiagCode::NonCoalescableGate));
}

TEST(Linter, FlagsUnreachableModule)
{
    Program prog;
    ModuleId orphan = prog.addModule("orphan");
    prog.module(orphan).addLocal("q");
    ModuleId entry = prog.addModule("main");
    prog.module(entry).addGate(GateKind::H,
                               {prog.module(entry).addLocal("q")});
    prog.setEntry(entry);

    DiagnosticEngine diags;
    lintProgram(prog, diags);
    EXPECT_TRUE(diags.has(DiagCode::UnreachableModule));
}

// --- Frontend integration ---

TEST(FrontendDiagnostics, CollectsMultipleSemanticErrorsWithLines)
{
    const char *source = R"(
module main() {
    qbit q[2];
    H(q[0], q[1]);
    CNOT(q[0], q[0]);
    MeasZ(q[0]);
}
)";
    DiagnosticEngine diags;
    Program prog = parseScaffold(source, &diags);
    EXPECT_TRUE(diags.has(DiagCode::GateArity));
    EXPECT_TRUE(diags.has(DiagCode::DuplicateOperand));

    // Line numbers carried from the source into the diagnostics.
    for (const auto &diag : diags.diagnostics()) {
        if (diag.code == DiagCode::GateArity) {
            EXPECT_EQ(diag.where.line, 4u);
        } else if (diag.code == DiagCode::DuplicateOperand) {
            EXPECT_EQ(diag.where.line, 5u);
        }
    }

    // The malformed program is still returned for inspection.
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 3u);
}

TEST(FrontendDiagnostics, DefaultPathStillThrowsFatalError)
{
    const char *source = "module main() { qbit q; CNOT(q, q); }";
    EXPECT_THROW(parseScaffold(source), FatalError);
}

TEST(FrontendDiagnostics, OperationsCarrySourceLines)
{
    const char *source = R"(
module main() {
    qbit q[2];
    H(q[0]);
    CNOT(q[0], q[1]);
}
)";
    Program prog = parseScaffold(source);
    const Module &mod = prog.module(prog.entry());
    EXPECT_EQ(mod.op(0).line, 4u);
    EXPECT_EQ(mod.op(1).line, 5u);
}

TEST(FrontendDiagnostics, QasmReaderCollectsSemanticErrors)
{
    const char *text =
        ".module main\n"
        "qbit a\n"
        "qbit b\n"
        "CNOT a a\n"
        "H a b\n"
        ".end\n";
    DiagnosticEngine diags;
    parseHierarchicalQasm(text, &diags);
    EXPECT_TRUE(diags.has(DiagCode::DuplicateOperand));
    EXPECT_TRUE(diags.has(DiagCode::GateArity));
}

// --- Coarse-schedule validator ---

TEST(CoarseValidator, AcceptsCoarseSchedulerOutput)
{
    Program prog = workloads::scaledParams()[0].build();
    ToolflowConfig config;
    config.arch = MultiSimdArch(4);
    config.rotations.sequenceLength = 20;
    ToolflowResult result = Toolflow(config).run(prog);

    DiagnosticEngine diags;
    EXPECT_TRUE(validateProgramSchedule(prog, result.schedule,
                                        config.arch, &diags))
        << diags.formatAll();
}

TEST(CoarseValidator, CatchesTamperedSchedules)
{
    const char *source = R"(
module kernel(qbit a) {
    H(a);
    T(a);
}
module main() {
    qbit q;
    kernel(q);
    MeasZ(q);
}
)";
    Program prog = parseScaffold(source);
    MultiSimdArch arch(2);
    LpfsScheduler leaf;
    CoarseScheduler coarse(arch, leaf, CommMode::None);
    ProgramSchedule psched = coarse.schedule(prog);
    ASSERT_TRUE(validateProgramSchedule(prog, psched, arch));

    // Tamper 1: non-monotone width/length curve.
    ProgramSchedule broken = psched;
    ModuleId kernel = prog.findModule("kernel");
    ASSERT_GE(broken.modules[kernel].dims.size(), 2u);
    broken.modules[kernel].dims.back().length =
        broken.modules[kernel].dims.front().length + 10;
    DiagnosticEngine diags;
    EXPECT_FALSE(validateProgramSchedule(prog, broken, arch, &diags));
    EXPECT_TRUE(diags.has(DiagCode::CoarseDimsNotMonotone));

    // Tamper 2: reachable module marked unanalyzed.
    broken = psched;
    broken.modules[kernel] = ModuleScheduleInfo{};
    diags.clear();
    EXPECT_FALSE(validateProgramSchedule(prog, broken, arch, &diags));
    EXPECT_TRUE(diags.has(DiagCode::CoarseNotAnalyzed));

    // Tamper 3: blackbox wider than the machine.
    broken = psched;
    broken.modules[kernel].dims.back().width = arch.k + 1;
    diags.clear();
    EXPECT_FALSE(validateProgramSchedule(prog, broken, arch, &diags));
    EXPECT_TRUE(diags.has(DiagCode::CoarseWidthExceedsK));

    // Default mode panics like the leaf validator.
    EXPECT_THROW(validateProgramSchedule(prog, broken, arch), PanicError);

    // Tamper 4: leaf flag flipped on a leaf module (C002).
    broken = psched;
    broken.modules[kernel].leaf = !broken.modules[kernel].leaf;
    diags.clear();
    EXPECT_FALSE(validateProgramSchedule(prog, broken, arch, &diags));
    EXPECT_TRUE(diags.has(DiagCode::CoarseLeafMismatch));

    // Tamper 5: analyzed module stripped of its dimensions (C003).
    broken = psched;
    broken.modules[kernel].dims.clear();
    diags.clear();
    EXPECT_FALSE(validateProgramSchedule(prog, broken, arch, &diags));
    EXPECT_TRUE(diags.has(DiagCode::CoarseNoDims));

    // Tamper 6: program total disagrees with the entry module (C006).
    broken = psched;
    broken.totalCycles += 7;
    diags.clear();
    EXPECT_FALSE(validateProgramSchedule(prog, broken, arch, &diags));
    EXPECT_TRUE(diags.has(DiagCode::CoarseTotalMismatch));
}

TEST(CoarseValidator, LargeKnownGoodScheduleStaysClean)
{
    // The biggest scaled workload, end-to-end through the toolflow,
    // must replay through every C-code check without a single finding.
    Program prog = workloads::scaledParams().back().build();
    ToolflowConfig config;
    config.arch = MultiSimdArch(4);
    config.rotations.sequenceLength = 20;
    ToolflowResult result = Toolflow(config).run(prog);

    DiagnosticEngine diags;
    EXPECT_TRUE(validateProgramSchedule(prog, result.schedule,
                                        config.arch, &diags))
        << diags.formatAll();
    EXPECT_EQ(diags.numErrors(), 0u);
}

// --- PassManager integration ---

/** A deliberately buggy pass: rewrites the entry module's first gate to
 * a CNOT with a duplicated operand, bypassing the checked builders. */
class CorruptingPass : public Pass
{
  public:
    const char *name() const override { return "corrupt-ir"; }

    void
    run(Program &prog) override
    {
        Module &mod = prog.module(prog.entry());
        std::vector<Operation> ops = mod.ops();
        ops.front() = Operation(GateKind::CNOT, {0, 0});
        mod.setOps(std::move(ops));
    }
};

TEST(PassManagerVerify, CatchesPassThatCorruptsIr)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::H, {reg[0]});
    prog.setEntry(id);

    PassManager pm;
    pm.setVerifyAfterPasses(true);
    pm.add(std::make_unique<CorruptingPass>());
    try {
        pm.run(prog);
        FAIL() << "expected PanicError";
    } catch (const PanicError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("corrupt-ir"), std::string::npos);
        EXPECT_NE(what.find("V003"), std::string::npos);
    }
}

TEST(PassManagerVerify, CleanPassesRunUnderVerification)
{
    Program prog;
    ModuleId id = prog.addModule("main");
    Module &mod = prog.module(id);
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::H, {reg[0]});
    mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    prog.setEntry(id);

    PassManager clean;
    clean.setVerifyAfterPasses(true);
    EXPECT_NO_THROW(clean.run(prog));
}

TEST(PassManagerVerify, EnvironmentVariableEnablesIt)
{
    // A default-constructed PassManager reads the variable; only with
    // the hook on does the corrupting pass panic (Program::validate
    // does not look at operands).
    auto corrupt_panics = [] {
        Program prog;
        ModuleId id = prog.addModule("main");
        Module &mod = prog.module(id);
        auto reg = mod.addRegister("q", 2);
        mod.addGate(GateKind::H, {reg[0]});
        prog.setEntry(id);
        PassManager pm;
        pm.add(std::make_unique<CorruptingPass>());
        try {
            pm.run(prog);
        } catch (const PanicError &) {
            return true;
        }
        return false;
    };
    ASSERT_EQ(setenv("MSQ_VERIFY_AFTER_PASSES", "1", 1), 0);
    EXPECT_TRUE(corrupt_panics());
    ASSERT_EQ(setenv("MSQ_VERIFY_AFTER_PASSES", "0", 1), 0);
    EXPECT_FALSE(corrupt_panics());
    ASSERT_EQ(unsetenv("MSQ_VERIFY_AFTER_PASSES"), 0);
    EXPECT_FALSE(corrupt_panics());
}

} // namespace
