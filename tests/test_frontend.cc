/**
 * @file
 * Tests for the Scaffold-subset frontend: lexer, parser (declarations,
 * registers, calls, repeats, rotations, diagnostics) and the QASM
 * emitters, including a printer round-trip, and the hierarchical-QASM
 * reader against a std::istringstream tokenizer oracle.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"

#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lexer.hh"
#include "frontend/parser.hh"
#include "frontend/qasm_emitter.hh"
#include "frontend/qasm_reader.hh"
#include "support/diagnostic.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

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

// ---------------------------------------------------------------------
// Whitespace parity: the reader must split text exactly as std::getline
// and std::istringstream >> do, so those two are the oracle.
// ---------------------------------------------------------------------

/** The oracle's tokens of @p line: what operator>> reads in the C
 * locale. */
std::vector<std::string>
streamTokens(const std::string &line)
{
    std::istringstream in(line);
    in.imbue(std::locale::classic());
    std::vector<std::string> out;
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

/** @p text with each std::getline line re-joined from its oracle tokens
 * by single spaces: the same lines, so the same line numbers. */
std::string
oracleCanonical(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
        const std::vector<std::string> toks = streamTokens(line);
        for (size_t i = 0; i < toks.size(); ++i)
            out += (i == 0 ? "" : " ") + toks[i];
        out += '\n';
    }
    return out;
}

/** Every module's name, qubit names and ops (with their source lines),
 * field by field. */
std::string
describe(const Program &prog)
{
    std::ostringstream out;
    out << "entry " << prog.entry() << '\n';
    for (ModuleId id = 0; id < prog.numModules(); ++id) {
        const Module &mod = prog.module(id);
        out << mod.name() << " params " << mod.numParams() << ':';
        for (QubitId q = 0; q < mod.numQubits(); ++q)
            out << ' ' << mod.qubitName(q);
        out << '\n';
        for (const Operation &op : mod.ops()) {
            out << "  line " << op.line << ' ' << gateName(op.kind) << ' '
                << op.angle << " callee " << op.callee << " x"
                << op.repeat << ':';
            for (QubitId q : op.operands)
                out << ' ' << q;
            out << '\n';
        }
    }
    return out.str();
}

/** The message of the FatalError @p text raises, or "" when it parses. */
std::string
parseError(const std::string &text)
{
    try {
        parseHierarchicalQasm(text);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/**
 * @p text with every line and every gap between tokens re-spaced from
 * @p rng: runs of the six C-locale whitespace bytes, leading and
 * trailing whitespace, CRLF endings and inserted blank or
 * whitespace-only lines.
 */
std::string
scramble(const std::string &text, SplitMix64 &rng)
{
    static const char *const gaps[] = {" ",  "\t",  "\v",     "\f",
                                       "\r", "  ",  " \t \v", "\f\r \t"};
    auto gap = [&] { return std::string(gaps[rng.nextBelow(8)]); };
    std::istringstream in(text);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
        if (rng.nextBelow(4) == 0)
            out += (rng.nextBelow(2) == 0 ? "" : gap()) + "\n";
        std::string spaced = rng.nextBelow(2) == 0 ? "" : gap();
        bool first = true;
        for (const std::string &tok : streamTokens(line)) {
            spaced += (first ? "" : gap()) + tok;
            first = false;
        }
        if (rng.nextBelow(2) == 0)
            spaced += gap();
        out += spaced + (rng.nextBelow(2) == 0 ? "\r\n" : "\n");
    }
    return out;
}

/** Parse @p text, collecting the verifier's diagnostics (tiny SHA-1
 * binds one register to two parameters, V012) into @p report. */
Program
parseCollecting(const std::string &text, std::string &report)
{
    DiagnosticEngine diags;
    Program prog = parseHierarchicalQasm(text, &diags);
    for (const Diagnostic &diag : diags.diagnostics())
        report += diag.format() + "\n";
    return prog;
}

/** Every tiny and scaled workload's emitted hierarchical QASM. */
std::vector<std::pair<std::string, std::string>>
workloadQasm()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &specs :
         {workloads::tinyParams(), workloads::scaledParams()}) {
        for (const workloads::WorkloadSpec &spec : specs) {
            std::ostringstream qasm;
            emitHierarchicalQasm(qasm, spec.build());
            out.emplace_back(spec.name, qasm.str());
        }
    }
    return out;
}

TEST(QasmReader, WorkloadsRoundTripByteIdentically)
{
    for (const auto &[name, text] : workloadQasm()) {
        SCOPED_TRACE(name);
        std::string report;
        std::ostringstream again;
        emitHierarchicalQasm(again, parseCollecting(text, report));
        EXPECT_EQ(again.str(), text);
    }
}

TEST(QasmReader, ScrambledWhitespaceParsesAsTheOracleSplits)
{
    SplitMix64 rng(30);
    for (const auto &[name, text] : workloadQasm()) {
        SCOPED_TRACE(name);
        const std::string messy = scramble(text, rng);
        const std::string canonical = oracleCanonical(messy);
        ASSERT_NE(messy, canonical);
        std::string messy_report;
        std::string canonical_report;
        const Program parsed = parseCollecting(messy, messy_report);
        EXPECT_EQ(describe(parsed),
                  describe(parseCollecting(canonical, canonical_report)));
        // Verifier diagnostics name source lines too.
        EXPECT_EQ(messy_report, canonical_report);
        // Inserted lines shift op.line, but nothing else moves.
        std::ostringstream again;
        emitHierarchicalQasm(again, parsed);
        EXPECT_EQ(again.str(), text);
    }
}

TEST(QasmReader, WhitespaceEdgeCasesMatchTheOracle)
{
    const std::string cases[] = {
        // Tabs, CRLF, \v and \f as separators; runs of blanks; leading
        // and trailing whitespace; blank and whitespace-only lines; no
        // final newline.
        "\t.module\tsub\t q \r\n\v T\fq\v\r\n.end\r\n\r\n"
        "  \t\n.module main\n\f\fqbit   x\t\r\n \v \n"
        "\tRz(0.5)\v\f x\r\n call[x7]\tsub \t x \n\t.end",
        ".module m a b\r\n\r\n\r\nCNOT a\tb\n\n  H  a  \n.end\n",
        // Bytes operator>> does not skip stay inside a token.
        ".module m q\n    H q\xa0\n.end\n",
        ".module m q\n    H\x85q\n.end\n",
    };
    for (const std::string &text : cases) {
        SCOPED_TRACE(text);
        const std::string canonical = oracleCanonical(text);
        const std::string error = parseError(text);
        EXPECT_EQ(error, parseError(canonical));
        if (error.empty()) {
            EXPECT_EQ(describe(parseHierarchicalQasm(text)),
                      describe(parseHierarchicalQasm(canonical)));
        }
    }
    EXPECT_EQ(describe(parseHierarchicalQasm(cases[0])),
              describe(parseHierarchicalQasm(
                  ".module sub q\nT q\n.end\n\n\n.module main\n"
                  "qbit x\n\nRz(0.5) x\ncall[x7] sub x\n.end\n")));
}

TEST(QasmReader, LineErrorsKeepTextAndNumberUnderAnyWhitespace)
{
    // Each messy input's first error, with its line number.
    const std::pair<std::string, std::string> cases[] = {
        {"\t.module\tm\v\r\n\tqbit q\f\r\n\t NOPE \t q\r\n.end\r\n",
         "qasm line 3: unknown gate 'NOPE'"},
        {"\n\n  .module m\r\n\t.module n\n.end\n",
         "qasm line 4: nested .module"},
        {".module m\r\n.end\r\n \t.end\t\r\n", "qasm line 3: .end without "
                                               ".module"},
        {"\v.module\fm\n\n  qbit\tq\n\tH\tz\r\n.end\n",
         "qasm line 4: unknown qubit 'z'"},
        {".module m q\r\n\r\n\tcall[xFOO]\tm\tq\r\n.end\r\n",
         "qasm line 3: call repeat count 'FOO' is not a number"},
        {".module m\n qbit q\n\n\n\tRz(1.5x)\v q\r\n.end\n",
         "qasm line 5: malformed gate angle '1.5x'"},
        {".module m\n\tqbit \t a \t b \r\n.end\n",
         "qasm line 2: qbit needs exactly one name"},
        {"\t\r\n H q\r\n.module m\n.end\n",
         "qasm line 2: statement outside .module block"},
        {".module m q\n\tqbit\vq\n.end\n", "qasm line 2: duplicate qubit 'q'"},
        {".module m q\n\t\tcall \t other\fq\n.end\n",
         "qasm line 2: unknown module 'other'"},
        {"  .module \t\r\n.module m\n.end\n", "qasm line 1: .module needs a "
                                             "name"},
    };
    for (const auto &[text, what] : cases) {
        SCOPED_TRACE(text);
        const std::string error = parseError(text);
        EXPECT_NE(error.find(what), std::string::npos) << error;
        EXPECT_EQ(error, parseError(oracleCanonical(text)));
    }
}

} // namespace
