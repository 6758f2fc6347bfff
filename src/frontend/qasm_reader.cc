#include "frontend/qasm_reader.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "support/logging.hh"
#include "support/strings.hh"
#include "verify/verifier.hh"

namespace msq {

namespace {

/** Whitespace-split one line into tokens. */
std::vector<std::string>
tokens(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

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
parseRepeat(unsigned line_no, const std::string &text)
{
    if (text.empty())
        bad(line_no, "call repeat count is empty");
    if (text.find_first_not_of("0123456789") != std::string::npos)
        bad(line_no, "call repeat count '" + text + "' is not a number");
    uint64_t value = 0;
    if (!parseCount(text, value))
        bad(line_no, "call repeat count '" + text + "' is out of range");
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
    {
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            auto toks = tokens(line);
            if (toks.size() >= 2 && toks[0] == ".module")
                prog.addModule(toks[1]);
        }
    }
    if (prog.numModules() == 0)
        fatal("qasm input contains no .module blocks");

    std::istringstream in(text);
    std::string line;
    unsigned line_no = 0;
    ModuleId current = invalidModule;
    ModuleId last = invalidModule;
    std::unordered_map<std::string, QubitId> names;

    auto lookup = [&](const std::string &name) -> QubitId {
        auto it = names.find(name);
        if (it == names.end())
            bad(line_no, "unknown qubit '" + name + "'");
        return it->second;
    };

    while (std::getline(in, line)) {
        ++line_no;
        auto toks = tokens(line);
        if (toks.empty())
            continue;

        if (toks[0] == ".module") {
            if (current != invalidModule)
                bad(line_no, "nested .module");
            if (toks.size() < 2)
                bad(line_no, ".module needs a name");
            current = prog.findModule(toks[1]);
            names.clear();
            Module &mod = prog.module(current);
            for (size_t i = 2; i < toks.size(); ++i)
                names.emplace(toks[i], mod.addParam(toks[i]));
            continue;
        }
        if (toks[0] == ".end") {
            if (current == invalidModule)
                bad(line_no, ".end without .module");
            last = current;
            current = invalidModule;
            continue;
        }
        if (current == invalidModule)
            bad(line_no, "statement outside .module block");
        Module &mod = prog.module(current);

        if (toks[0] == "qbit") {
            if (toks.size() != 2)
                bad(line_no, "qbit needs exactly one name");
            if (names.count(toks[1]))
                bad(line_no, "duplicate qubit '" + toks[1] + "'");
            names.emplace(toks[1], mod.addLocal(toks[1]));
            continue;
        }

        if (startsWith(toks[0], "call")) {
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
            ModuleId callee = prog.findModule(toks[1]);
            if (callee == invalidModule)
                bad(line_no, "unknown module '" + toks[1] + "'");
            QubitList args;
            for (size_t i = 2; i < toks.size(); ++i)
                args.push_back(lookup(toks[i]));
            Operation call =
                Operation::makeCall(callee, std::move(args), repeat);
            call.line = line_no;
            mod.addRawOperation(std::move(call));
            continue;
        }

        // Gate line: NAME or NAME(angle), then operand names.
        std::string head = toks[0];
        double angle = 0.0;
        size_t paren = head.find('(');
        if (paren != std::string::npos) {
            if (head.back() != ')')
                bad(line_no, "malformed angle");
            angle = parseAngle(
                line_no, head.substr(paren + 1, head.size() - paren - 2));
            head = head.substr(0, paren);
        }
        GateKind kind;
        if (!parseGateName(head, kind) || kind == GateKind::Call)
            bad(line_no, "unknown gate '" + head + "'");
        QubitList operands;
        for (size_t i = 1; i < toks.size(); ++i)
            operands.push_back(lookup(toks[i]));
        Operation op(kind, std::move(operands), angle);
        op.line = line_no;
        mod.addRawOperation(std::move(op));
    }

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
