/**
 * @file
 * Tests for the Scaffold-subset frontend: lexer, parser (declarations,
 * registers, calls, repeats, rotations, diagnostics) and the QASM
 * emitters, including a printer round-trip.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"

#include <sstream>

#include "frontend/lexer.hh"
#include "frontend/parser.hh"
#include "frontend/qasm_emitter.hh"
#include "frontend/qasm_reader.hh"
#include "ir/printer.hh"

namespace {

using namespace msq;

TEST(Lexer, BasicTokens)
{
    auto tokens = tokenize("module foo(qbit q) { H(q); }");
    ASSERT_GE(tokens.size(), 12u);
    EXPECT_EQ(tokens[0].kind, TokenKind::KwModule);
    EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[1].text, "foo");
    EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
}

TEST(Lexer, NumbersAndComments)
{
    auto tokens = tokenize("// comment\n42 3.25 1e-3 /* block\n */ 7");
    ASSERT_EQ(tokens.size(), 5u);
    EXPECT_EQ(tokens[0].kind, TokenKind::Integer);
    EXPECT_EQ(tokens[0].intValue, 42u);
    EXPECT_EQ(tokens[1].kind, TokenKind::Float);
    EXPECT_DOUBLE_EQ(tokens[1].floatValue, 3.25);
    EXPECT_EQ(tokens[2].kind, TokenKind::Float);
    EXPECT_DOUBLE_EQ(tokens[2].floatValue, 1e-3);
    EXPECT_EQ(tokens[3].intValue, 7u);
}

TEST(Lexer, TracksLineNumbers)
{
    auto tokens = tokenize("a\nb\n\nc");
    EXPECT_EQ(tokens[0].line, 1u);
    EXPECT_EQ(tokens[1].line, 2u);
    EXPECT_EQ(tokens[2].line, 4u);
}

TEST(Lexer, RejectsGarbage)
{
    EXPECT_THROW(tokenize("module $"), FatalError);
    EXPECT_THROW(tokenize("/* unterminated"), FatalError);
}

TEST(Lexer, RejectsSecondDotInNumber)
{
    EXPECT_THROW(tokenize("1.2.3"), FatalError);
    EXPECT_THROW(tokenize("Rz(q, 1.2.3);"), FatalError);
    EXPECT_THROW(tokenize(".5.2"), FatalError);
}

TEST(Lexer, RejectsDanglingExponent)
{
    EXPECT_THROW(tokenize("1e"), FatalError);
    EXPECT_THROW(tokenize("1e+"), FatalError);
    EXPECT_THROW(tokenize("1e-"), FatalError);
    EXPECT_THROW(tokenize("3.25E"), FatalError);
    EXPECT_THROW(tokenize("1e+;"), FatalError);
}

TEST(Lexer, RejectsLettersGluedToNumber)
{
    EXPECT_THROW(tokenize("123abc"), FatalError);
    EXPECT_THROW(tokenize("1.5x"), FatalError);
}

TEST(Lexer, AcceptsWellFormedNumberShapes)
{
    auto tokens = tokenize("1. .5 2e5 2E+5 1.25e-3");
    ASSERT_EQ(tokens.size(), 6u);
    EXPECT_EQ(tokens[0].kind, TokenKind::Float);
    EXPECT_DOUBLE_EQ(tokens[0].floatValue, 1.0);
    EXPECT_DOUBLE_EQ(tokens[1].floatValue, 0.5);
    EXPECT_DOUBLE_EQ(tokens[2].floatValue, 2e5);
    EXPECT_DOUBLE_EQ(tokens[3].floatValue, 2e5);
    EXPECT_DOUBLE_EQ(tokens[4].floatValue, 1.25e-3);
}

TEST(Lexer, RejectsOutOfRangeNumbers)
{
    // Shape-valid but unrepresentable literals still die through the
    // diagnosed path, not a raw std::out_of_range.
    EXPECT_THROW(tokenize("123456789012345678901234567890"), FatalError);
    EXPECT_THROW(tokenize("1e999"), FatalError);
}

TEST(Parser, SimpleModule)
{
    Program prog = parseScaffold(R"(
        module main() {
            qbit q[3];
            H(q[0]);
            CNOT(q[0], q[1]);
            Toffoli(q[0], q[1], q[2]);
        }
    )");
    const Module &mod = prog.module(prog.entry());
    EXPECT_EQ(mod.name(), "main");
    EXPECT_EQ(mod.numQubits(), 3u);
    ASSERT_EQ(mod.numOps(), 3u);
    EXPECT_EQ(mod.op(2).kind, GateKind::Toffoli);
}

TEST(Parser, ModuleCallsAndRepeat)
{
    Program prog = parseScaffold(R"(
        module sub(qbit a, qbit b) {
            CNOT(a, b);
        }
        module main() {
            qbit x;
            qbit y;
            repeat 12 sub(x, y);
        }
    )");
    const Module &mod = prog.module(prog.entry());
    ASSERT_EQ(mod.numOps(), 1u);
    EXPECT_TRUE(mod.op(0).isCall());
    EXPECT_EQ(mod.op(0).repeat, 12u);
}

TEST(Parser, ForwardCallsAllowed)
{
    Program prog = parseScaffold(R"(
        module main() {
            qbit x;
            later(x);
        }
        module later(qbit q) {
            H(q);
        }
    )");
    EXPECT_EQ(prog.numModules(), 2u);
    EXPECT_EQ(prog.module(prog.entry()).name(), "main");
}

TEST(Parser, RegisterExpansionInArgs)
{
    Program prog = parseScaffold(R"(
        module sub(qbit r[3]) {
            H(r[0]);
        }
        module main() {
            qbit q[3];
            sub(q);
        }
    )");
    const Module &mod = prog.module(prog.entry());
    EXPECT_EQ(mod.op(0).operands.size(), 3u);
}

TEST(Parser, RotationAngles)
{
    Program prog = parseScaffold(R"(
        module main() {
            qbit q;
            Rz(q, 0.5);
            Rx(q, -1.25);
        }
    )");
    const Module &mod = prog.module(prog.entry());
    EXPECT_DOUBLE_EQ(mod.op(0).angle, 0.5);
    EXPECT_DOUBLE_EQ(mod.op(1).angle, -1.25);
}

TEST(Parser, EntryFallsBackToLastModule)
{
    Program prog = parseScaffold(R"(
        module first(qbit q) { H(q); }
        module runner() { qbit q; first(q); }
    )");
    EXPECT_EQ(prog.module(prog.entry()).name(), "runner");
}

TEST(Parser, Diagnostics)
{
    EXPECT_THROW(parseScaffold("module main() { H(q); }"), FatalError);
    EXPECT_THROW(parseScaffold("module main() { qbit q; Rz(q); }"),
                 FatalError);
    EXPECT_THROW(parseScaffold("module main() { qbit q; H(q, 0.5); }"),
                 FatalError);
    EXPECT_THROW(parseScaffold("module main() { qbit q; nope(q); }"),
                 FatalError);
    EXPECT_THROW(parseScaffold("module main() { qbit q[2]; H(q[5]); }"),
                 FatalError);
    EXPECT_THROW(parseScaffold("module m(qbit q) { H(q); } module m() {}"),
                 FatalError);
    EXPECT_THROW(parseScaffold(""), FatalError);
    EXPECT_THROW(parseScaffold("module main() { qbit q; repeat 0 H(q); }"),
                 FatalError);
}

TEST(Parser, RepeatedGateUnrolls)
{
    Program prog = parseScaffold(R"(
        module main() {
            qbit q;
            repeat 4 T(q);
        }
    )");
    EXPECT_EQ(prog.module(prog.entry()).numOps(), 4u);
}

TEST(Parser, PrinterRoundTrip)
{
    const char *source = R"(
        module sub(qbit a, qbit b) {
            qbit anc;
            CNOT(a, anc);
            Rz(anc, 0.125);
            CNOT(b, anc);
        }
        module main() {
            qbit q[2];
            H(q[0]);
            repeat 7 sub(q[0], q[1]);
            MeasZ(q[0]);
        }
    )";
    Program prog = parseScaffold(source);
    std::ostringstream dumped;
    printProgram(dumped, prog);
    Program reparsed = parseScaffold(dumped.str());
    std::ostringstream dumped2;
    printProgram(dumped2, reparsed);
    EXPECT_EQ(dumped.str(), dumped2.str());
}

TEST(QasmEmitter, HierarchicalForm)
{
    Program prog = parseScaffold(R"(
        module sub(qbit a) { T(a); }
        module main() { qbit q; repeat 3 sub(q); H(q); }
    )");
    std::ostringstream os;
    emitHierarchicalQasm(os, prog);
    std::string text = os.str();
    EXPECT_NE(text.find(".module sub a"), std::string::npos);
    EXPECT_NE(text.find("call[x3] sub q"), std::string::npos);
    EXPECT_NE(text.find("H q"), std::string::npos);
}

TEST(QasmReader, RoundTripsEmitterOutput)
{
    Program prog = parseScaffold(R"(
        module sub(qbit a, qbit b) {
            qbit anc;
            CNOT(a, anc);
            Rz(anc, 0.125);
            Toffoli(a, b, anc);
        }
        module main() {
            qbit q[3];
            H(q[0]);
            repeat 9 sub(q[0], q[1]);
            sub(q[1], q[2]);
            MeasZ(q[2]);
        }
    )");
    std::ostringstream first;
    emitHierarchicalQasm(first, prog);

    Program reloaded = parseHierarchicalQasm(first.str());
    std::ostringstream second;
    emitHierarchicalQasm(second, reloaded);
    EXPECT_EQ(first.str(), second.str());

    // Structure survives: same module count, entry, op counts.
    EXPECT_EQ(reloaded.numModules(), prog.numModules());
    EXPECT_EQ(reloaded.module(reloaded.entry()).numOps(),
              prog.module(prog.entry()).numOps());
}

TEST(QasmReader, ParsesRepeatAndAngle)
{
    Program prog = parseHierarchicalQasm(R"(.module sub q
    T q
.end

.module main
    qbit x
    Rz(0.5) x
    call[x7] sub x
.end
)");
    const Module &mod = prog.module(prog.entry());
    ASSERT_EQ(mod.numOps(), 2u);
    EXPECT_DOUBLE_EQ(mod.op(0).angle, 0.5);
    EXPECT_TRUE(mod.op(1).isCall());
    EXPECT_EQ(mod.op(1).repeat, 7u);
}

/** The FatalError message carries the offending line number. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &err) {
        return err.what();
    }
    ADD_FAILURE() << "expected a FatalError";
    return "";
}

TEST(QasmReader, RejectsMalformedCallRepeat)
{
    // Non-numeric, empty, and overflowing repeat counts must all be
    // line-numbered diagnostics, never raw std::stoull exceptions.
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m q\n    call[xFOO] m q\n.end\n"),
                 FatalError);
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m q\n    call[x] m q\n.end\n"),
                 FatalError);
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m q\n"
                     "    call[x123456789012345678901234567890] m q\n"
                     ".end\n"),
                 FatalError);
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m q\n    call[x-3] m q\n.end\n"),
                 FatalError);
    std::string msg = fatalMessage([] {
        parseHierarchicalQasm(".module m q\n    call[xFOO] m q\n.end\n");
    });
    EXPECT_NE(msg.find("qasm line 2"), std::string::npos) << msg;
    // A repeat is digits only, so parseCount's "inf" is not one, and an
    // overflow keeps its own diagnostic.
    const std::pair<std::string, std::string> cases[] = {
        {"inf", "call repeat count 'inf' is not a number"},
        {"+3", "call repeat count '+3' is not a number"},
        {"18446744073709551616",
         "call repeat count '18446744073709551616' is out of range"}};
    for (const auto &[repeat, what] : cases) {
        msg = fatalMessage([&] {
            parseHierarchicalQasm(".module m q\n    call[x" + repeat +
                                  "] m q\n.end\n");
        });
        EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
}

TEST(QasmReader, AcceptsLargeButRepresentableRepeat)
{
    Program prog = parseHierarchicalQasm(R"(.module sub q
    T q
.end
.module main
    qbit x
    call[x18446744073709551615] sub x
.end
)");
    const Module &mod = prog.module(prog.entry());
    ASSERT_EQ(mod.numOps(), 1u);
    EXPECT_EQ(mod.op(0).repeat, UINT64_MAX);
}

TEST(QasmReader, RejectsMalformedAngle)
{
    // Empty, non-numeric, trailing-garbage, and overflowing angles.
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m\n    qbit q\n    Rz() q\n.end\n"),
                 FatalError);
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m\n    qbit q\n    Rz(abc) q\n.end\n"),
                 FatalError);
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m\n    qbit q\n    Rz(1.5x) q\n.end\n"),
                 FatalError);
    EXPECT_THROW(parseHierarchicalQasm(
                     ".module m\n    qbit q\n    Rz(1e999) q\n.end\n"),
                 FatalError);
    std::string msg = fatalMessage([] {
        parseHierarchicalQasm(
            ".module m\n    qbit q\n    Rz(abc) q\n.end\n");
    });
    EXPECT_NE(msg.find("qasm line 3"), std::string::npos) << msg;
}

TEST(QasmReader, Diagnostics)
{
    EXPECT_THROW(parseHierarchicalQasm(""), FatalError);
    EXPECT_THROW(parseHierarchicalQasm(".module m\n    H q\n.end\n"),
                 FatalError); // unknown qubit
    EXPECT_THROW(parseHierarchicalQasm(".module m\n    qbit q\n"),
                 FatalError); // unterminated block
    EXPECT_THROW(
        parseHierarchicalQasm(".module m\n    qbit q\n    NOPE q\n.end\n"),
        FatalError); // unknown gate
    EXPECT_THROW(
        parseHierarchicalQasm(".module m\n    qbit q\n    call other q\n.end\n"),
        FatalError); // unknown callee
}

} // namespace
