#include "frontend/parser.hh"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "frontend/lexer.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "verify/verifier.hh"

namespace msq {

namespace {

/** Recursive-descent parser over the token stream. */
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens) : tokens(std::move(tokens)) {}

    Program
    parse(DiagnosticEngine *diags)
    {
        preScanModuleNames();
        while (!at(TokenKind::EndOfFile))
            parseModule();

        ModuleId entry = prog.findModule("main");
        if (entry == invalidModule) {
            if (lastModule == invalidModule)
                fatal("input contains no modules");
            entry = lastModule;
        }
        prog.setEntry(entry);
        if (diags != nullptr)
            verifyProgram(prog, *diags);
        else
            verifyProgramFatal(prog);
        return std::move(prog);
    }

  private:
    std::vector<Token> tokens;
    size_t pos = 0;
    Program prog;
    ModuleId lastModule = invalidModule;

    // Per-module symbol table: name -> qubit ids (size 1 for scalars).
    std::unordered_map<std::string, std::vector<QubitId>> symbols;

    const Token &peek() const { return tokens[pos]; }
    bool at(TokenKind kind) const { return peek().kind == kind; }

    const Token &
    expect(TokenKind kind)
    {
        if (!at(kind)) {
            fatal(csprintf("line %u: expected %s, found %s", peek().line,
                           tokenKindName(kind), tokenKindName(peek().kind)));
        }
        return tokens[pos++];
    }

    bool
    accept(TokenKind kind)
    {
        if (!at(kind)) {
            return false;
        }
        ++pos;
        return true;
    }

    /** Register every module name up front so calls can be forward. */
    void
    preScanModuleNames()
    {
        for (size_t i = 0; i + 1 < tokens.size(); ++i) {
            if (tokens[i].kind == TokenKind::KwModule &&
                tokens[i + 1].kind == TokenKind::Identifier) {
                prog.addModule(tokens[i + 1].text);
            }
        }
    }

    void
    declareSymbol(const std::string &name, std::vector<QubitId> ids,
                  unsigned line)
    {
        if (symbols.count(name))
            fatal(csprintf("line %u: redeclaration of '%s'", line,
                           name.c_str()));
        symbols.emplace(name, std::move(ids));
    }

    void
    parseModule()
    {
        unsigned line = peek().line;
        expect(TokenKind::KwModule);
        std::string name = expect(TokenKind::Identifier).text;
        ModuleId id = prog.findModule(name);
        if (id == invalidModule)
            panic("pre-scan missed module " + name);
        Module &mod = prog.module(id);
        if (mod.numQubits() != 0 || mod.numOps() != 0)
            fatal(csprintf("line %u: duplicate module '%s'", line,
                           name.c_str()));
        symbols.clear();

        expect(TokenKind::LParen);
        if (!at(TokenKind::RParen)) {
            do {
                parseParam(mod);
            } while (accept(TokenKind::Comma));
        }
        expect(TokenKind::RParen);
        expect(TokenKind::LBrace);
        while (!accept(TokenKind::RBrace))
            parseStatement(mod);
        lastModule = id;
    }

    void
    parseParam(Module &mod)
    {
        unsigned line = peek().line;
        expect(TokenKind::KwQbit);
        std::string name = expect(TokenKind::Identifier).text;
        std::vector<QubitId> ids;
        if (accept(TokenKind::LBracket)) {
            uint64_t width = expect(TokenKind::Integer).intValue;
            expect(TokenKind::RBracket);
            if (width == 0)
                fatal(csprintf("line %u: zero-width register '%s'", line,
                               name.c_str()));
            for (uint64_t i = 0; i < width; ++i) {
                ids.push_back(mod.addParam(
                    csprintf("%s[%llu]", name.c_str(),
                             static_cast<unsigned long long>(i))));
            }
        } else {
            ids.push_back(mod.addParam(name));
        }
        declareSymbol(name, std::move(ids), line);
    }

    void
    parseStatement(Module &mod)
    {
        unsigned line = peek().line;
        if (accept(TokenKind::KwQbit)) {
            std::string name = expect(TokenKind::Identifier).text;
            std::vector<QubitId> ids;
            if (accept(TokenKind::LBracket)) {
                uint64_t width = expect(TokenKind::Integer).intValue;
                expect(TokenKind::RBracket);
                if (width == 0)
                    fatal(csprintf("line %u: zero-width register '%s'",
                                   line, name.c_str()));
                for (uint64_t i = 0; i < width; ++i) {
                    ids.push_back(mod.addLocal(
                        csprintf("%s[%llu]", name.c_str(),
                                 static_cast<unsigned long long>(i))));
                }
            } else {
                ids.push_back(mod.addLocal(name));
            }
            expect(TokenKind::Semicolon);
            declareSymbol(name, std::move(ids), line);
            return;
        }

        uint64_t repeat = 1;
        if (accept(TokenKind::KwRepeat)) {
            repeat = expect(TokenKind::Integer).intValue;
            if (repeat == 0)
                fatal(csprintf("line %u: repeat count must be >= 1", line));
        }
        parseApply(mod, repeat, line);
        expect(TokenKind::Semicolon);
    }

    void
    parseApply(Module &mod, uint64_t repeat, unsigned line)
    {
        std::string name = expect(TokenKind::Identifier).text;
        expect(TokenKind::LParen);

        QubitList qubits;
        bool have_angle = false;
        double angle = 0.0;
        if (!at(TokenKind::RParen)) {
            do {
                if (at(TokenKind::Identifier)) {
                    parseQubitArg(mod, qubits);
                } else {
                    if (have_angle) {
                        fatal(csprintf("line %u: multiple angle arguments",
                                       line));
                    }
                    angle = parseNumber();
                    have_angle = true;
                }
            } while (accept(TokenKind::Comma));
        }
        expect(TokenKind::RParen);

        GateKind kind;
        if (parseGateName(name, kind) && kind != GateKind::Call) {
            if (isRotationGate(kind) && !have_angle) {
                fatal(csprintf("line %u: rotation gate %s needs an angle",
                               line, name.c_str()));
            }
            if (!isRotationGate(kind) && have_angle) {
                fatal(csprintf("line %u: gate %s takes no angle", line,
                               name.c_str()));
            }
            // Raw insertion: arity / duplicate-operand violations are
            // user errors, reported with line numbers by the IR
            // verifier pass that runs when parsing finishes.
            Operation op(kind, std::move(qubits), angle);
            op.line = line;
            for (uint64_t i = 1; i < repeat; ++i)
                mod.addRawOperation(op);
            mod.addRawOperation(std::move(op));
            return;
        }

        ModuleId callee = prog.findModule(name);
        if (callee == invalidModule) {
            fatal(csprintf("line %u: unknown gate or module '%s'", line,
                           name.c_str()));
        }
        if (have_angle)
            fatal(csprintf("line %u: module call with angle argument",
                           line));
        Operation call = Operation::makeCall(callee, std::move(qubits),
                                             repeat);
        call.line = line;
        mod.addRawOperation(std::move(call));
    }

    void
    parseQubitArg(Module &mod, QubitList &out)
    {
        unsigned line = peek().line;
        std::string name = expect(TokenKind::Identifier).text;
        auto it = symbols.find(name);
        if (it == symbols.end()) {
            fatal(csprintf("line %u: undeclared qubit '%s' in module %s",
                           line, name.c_str(), mod.name().c_str()));
        }
        if (accept(TokenKind::LBracket)) {
            uint64_t index = expect(TokenKind::Integer).intValue;
            expect(TokenKind::RBracket);
            if (index >= it->second.size()) {
                fatal(csprintf("line %u: index %llu out of range for '%s'",
                               line,
                               static_cast<unsigned long long>(index),
                               name.c_str()));
            }
            out.push_back(it->second[index]);
        } else {
            // Bare register name: expand to all elements.
            for (QubitId q : it->second)
                out.push_back(q);
        }
    }

    double
    parseNumber()
    {
        bool negative = accept(TokenKind::Minus);
        double value = 0.0;
        if (at(TokenKind::Float)) {
            value = expect(TokenKind::Float).floatValue;
        } else if (at(TokenKind::Integer)) {
            value = static_cast<double>(expect(TokenKind::Integer).intValue);
        } else {
            fatal(csprintf("line %u: expected a number, found %s",
                           peek().line, tokenKindName(peek().kind)));
        }
        return negative ? -value : value;
    }
};

} // anonymous namespace

Program
parseScaffold(const std::string &source, DiagnosticEngine *diags)
{
    Parser parser(tokenize(source));
    return parser.parse(diags);
}

Program
parseScaffoldFile(const std::string &path, DiagnosticEngine *diags)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open input file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseScaffold(buffer.str(), diags);
}

} // namespace msq
