#include "frontend/qasm_reader.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/logging.hh"
#include "support/strings.hh"
#include "verify/verifier.hh"

namespace msq {

namespace {

/**
 * The bytes `operator>>` skips in the C locale: space, \t, \n, \v, \f
 * and \r (9 to 13 are contiguous).
 */
bool
isQasmSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** The token of @p line at or after @p pos (empty at the end of the
 * line); @p pos moves past it. */
std::string_view
nextToken(std::string_view line, size_t &pos)
{
    while (pos < line.size() && isQasmSpace(line[pos]))
        ++pos;
    const size_t begin = pos;
    while (pos < line.size() && !isQasmSpace(line[pos]))
        ++pos;
    return line.substr(begin, pos - begin);
}

/** Whitespace-split @p line into @p out, whose views point into it. */
void
tokens(std::string_view line, std::vector<std::string_view> &out)
{
    out.clear();
    size_t pos = 0;
    for (std::string_view tok = nextToken(line, pos); !tok.empty();
         tok = nextToken(line, pos))
        out.push_back(tok);
}

/** Call @p visit(line) for each '\n'-terminated line of @p text, as
 * std::getline splits it. */
template <typename Visit>
void
forEachLine(const std::string &text, Visit &&visit)
{
    const std::string_view all = text;
    for (size_t begin = 0; begin < all.size();) {
        size_t end = all.find('\n', begin);
        if (end == std::string_view::npos)
            end = all.size();
        visit(all.substr(begin, end - begin));
        begin = end + 1;
    }
}

/** Qubit-name table looked up by token without copying it. */
struct NameHash
{
    using is_transparent = void;

    size_t
    operator()(std::string_view name) const
    {
        return std::hash<std::string_view>{}(name);
    }
};

using NameTable =
    std::unordered_map<std::string, QubitId, NameHash, std::equal_to<>>;

[[noreturn]] void
bad(unsigned line_no, const std::string &what)
{
    fatal(csprintf("qasm line %u: %s", line_no, what.c_str()));
}

/**
 * Parse the N of a call[xN] repeat through parseCount, so malformed
 * input ("call[xFOO]", "call[x]", a 30-digit count) is a diagnosed
 * FatalError with a line number, never a raw std::exception.
 */
uint64_t
parseRepeat(unsigned line_no, std::string_view text)
{
    if (text.empty())
        bad(line_no, "call repeat count is empty");
    if (text.find_first_not_of("0123456789") != std::string_view::npos)
        bad(line_no, "call repeat count '" + std::string(text) +
                         "' is not a number");
    uint64_t value = 0;
    if (!parseCount(text, value))
        bad(line_no, "call repeat count '" + std::string(text) +
                         "' is out of range");
    return value;
}

/**
 * Parse a gate angle. Rejects empty ("Rz()"), non-numeric ("Rz(abc)"),
 * trailing-garbage ("Rz(1.5x)") and out-of-range forms with a
 * line-numbered diagnostic instead of letting std::stod throw.
 */
double
parseAngle(unsigned line_no, const std::string &text)
{
    if (text.empty())
        bad(line_no, "gate angle is empty");
    errno = 0;
    const char *begin = text.c_str();
    char *end = nullptr;
    double value = std::strtod(begin, &end);
    if (end == begin || *end != '\0')
        bad(line_no, "malformed gate angle '" + text + "'");
    if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL))
        bad(line_no, "gate angle '" + text + "' is out of range");
    return value;
}

} // anonymous namespace

Program
parseHierarchicalQasm(const std::string &text, DiagnosticEngine *diags)
{
    Program prog;

    // Pre-scan module names so calls could, in principle, be forward.
    // Only a line's first token (and a .module line's second) is read.
    forEachLine(text, [&](std::string_view line) {
        size_t pos = 0;
        if (nextToken(line, pos) != ".module")
            return;
        if (const std::string_view name = nextToken(line, pos);
            !name.empty())
            prog.addModule(std::string(name));
    });
    if (prog.numModules() == 0)
        fatal("qasm input contains no .module blocks");

    unsigned line_no = 0;
    ModuleId current = invalidModule;
    ModuleId last = invalidModule;
    NameTable names;
    std::vector<std::string_view> toks;

    auto lookup = [&](std::string_view name) -> QubitId {
        auto it = names.find(name);
        if (it == names.end())
            bad(line_no, "unknown qubit '" + std::string(name) + "'");
        return it->second;
    };

    forEachLine(text, [&](std::string_view line) {
        ++line_no;
        tokens(line, toks);
        if (toks.empty())
            return;

        if (toks[0] == ".module") {
            if (current != invalidModule)
                bad(line_no, "nested .module");
            if (toks.size() < 2)
                bad(line_no, ".module needs a name");
            current = prog.findModule(std::string(toks[1]));
            names.clear();
            Module &mod = prog.module(current);
            for (size_t i = 2; i < toks.size(); ++i) {
                std::string name(toks[i]);
                const QubitId id = mod.addParam(name);
                names.emplace(std::move(name), id);
            }
            return;
        }
        if (toks[0] == ".end") {
            if (current == invalidModule)
                bad(line_no, ".end without .module");
            last = current;
            current = invalidModule;
            return;
        }
        if (current == invalidModule)
            bad(line_no, "statement outside .module block");
        Module &mod = prog.module(current);

        if (toks[0] == "qbit") {
            if (toks.size() != 2)
                bad(line_no, "qbit needs exactly one name");
            std::string name(toks[1]);
            if (names.contains(name))
                bad(line_no, "duplicate qubit '" + name + "'");
            const QubitId id = mod.addLocal(name);
            names.emplace(std::move(name), id);
            return;
        }

        if (toks[0].starts_with("call")) {
            uint64_t repeat = 1;
            if (toks[0] != "call") {
                // call[xN]
                if (toks[0].size() < 8 || toks[0].substr(4, 2) != "[x" ||
                    toks[0].back() != ']')
                    bad(line_no, "malformed call repeat");
                repeat = parseRepeat(
                    line_no, toks[0].substr(6, toks[0].size() - 7));
            }
            if (toks.size() < 2)
                bad(line_no, "call needs a target module");
            const std::string callee_name(toks[1]);
            ModuleId callee = prog.findModule(callee_name);
            if (callee == invalidModule)
                bad(line_no, "unknown module '" + callee_name + "'");
            QubitList args;
            for (size_t i = 2; i < toks.size(); ++i)
                args.push_back(lookup(toks[i]));
            Operation call =
                Operation::makeCall(callee, std::move(args), repeat);
            call.line = line_no;
            mod.addRawOperation(std::move(call));
            return;
        }

        // Gate line: NAME or NAME(angle), then operand names.
        std::string_view head = toks[0];
        double angle = 0.0;
        size_t paren = head.find('(');
        if (paren != std::string_view::npos) {
            if (head.back() != ')')
                bad(line_no, "malformed angle");
            angle = parseAngle(line_no,
                               std::string(head.substr(
                                   paren + 1, head.size() - paren - 2)));
            head = head.substr(0, paren);
        }
        GateKind kind;
        const std::string gate(head);
        if (!parseGateName(gate, kind) || kind == GateKind::Call)
            bad(line_no, "unknown gate '" + gate + "'");
        QubitList operands;
        for (size_t i = 1; i < toks.size(); ++i)
            operands.push_back(lookup(toks[i]));
        Operation op(kind, std::move(operands), angle);
        op.line = line_no;
        mod.addRawOperation(std::move(op));
    });

    if (current != invalidModule)
        fatal("qasm input ends inside a .module block");
    if (last == invalidModule)
        fatal("qasm input contains no completed module");
    prog.setEntry(last);
    if (diags != nullptr)
        verifyProgram(prog, *diags);
    else
        verifyProgramFatal(prog);
    return prog;
}

} // namespace msq
