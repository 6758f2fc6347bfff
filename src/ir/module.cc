#include "ir/module.hh"

#include <array>

#include "support/hash.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/**
 * Folding one byte b maps h to (h ^ b) * p, and h ^ b = h + e with
 * e = ((h mod 256) ^ b) - (h mod 256), which depends on h only through
 * its low byte. The low byte of (h + e) * p is again a function of
 * h mod 256 alone, so by induction folding any fixed string of n bytes
 * maps h to F(h) = h * p^n + T[h mod 256] (mod 2^64), where
 * T[x] = F(x) - x * p^n.
 *
 * Every non-call op folds the same 16 bytes after its kind: callee
 * invalidModule and repeat 1, eight little-endian bytes each. gateTail
 * is T for that string, so structuralHash folds them in one multiply.
 */
constexpr uint64_t gateTailPower =
    fnv1aPrimePowers[8] * fnv1aPrimePowers[8];

constexpr auto gateTail = [] {
    std::array<uint64_t, 256> tail{};
    for (uint64_t x = 0; x < tail.size(); ++x) {
        uint64_t h = x;
        for (uint64_t v : {uint64_t{invalidModule}, uint64_t{1}})
            for (int i = 0; i < 8; ++i, v >>= 8)
                h = (h ^ (v & 0xff)) * fnv1aPrime;
        tail[x] = h - x * gateTailPower;
    }
    return tail;
}();

} // anonymous namespace

QubitId
Module::addParam(const std::string &qubit_name)
{
    if (numParams_ != qubitNames.size())
        panic("Module " + name_ + ": parameters must precede locals");
    qubitNames.push_back(qubit_name);
    return static_cast<QubitId>(numParams_++);
}

QubitId
Module::addLocal(std::string qubit_name)
{
    qubitNames.push_back(std::move(qubit_name));
    return static_cast<QubitId>(qubitNames.size() - 1);
}

std::vector<QubitId>
Module::addRegister(const std::string &base, size_t width)
{
    std::vector<QubitId> reg;
    reg.reserve(width);
    for (size_t i = 0; i < width; ++i)
        reg.push_back(addLocal(base + '[' + std::to_string(i) + ']'));
    return reg;
}

void
Module::addGate(GateKind kind, QubitList operands, double angle)
{
    if (kind == GateKind::Call)
        panic("Module::addGate cannot add calls; use addCall");
    int arity = gateArity(kind);
    if (arity >= 0 && operands.size() != static_cast<size_t>(arity)) {
        panic(csprintf("Module %s: gate %s expects %d operands, got %zu",
                       name_.c_str(), gateName(kind), arity,
                       operands.size()));
    }
    for (QubitId q : operands) {
        if (q >= qubitNames.size()) {
            panic(csprintf("Module %s: operand %u out of range (%zu qubits)",
                           name_.c_str(), q, qubitNames.size()));
        }
    }
    for (size_t i = 0; i < operands.size(); ++i) {
        for (size_t j = i + 1; j < operands.size(); ++j) {
            if (operands[i] == operands[j]) {
                panic(csprintf("Module %s: gate %s has duplicate operand %u",
                               name_.c_str(), gateName(kind), operands[i]));
            }
        }
    }
    ++kindCounts_[static_cast<size_t>(kind)];
    ops_.emplace_back(kind, std::move(operands), angle);
}

void
Module::addCall(ModuleId callee, QubitList args, uint64_t repeat)
{
    if (callee == invalidModule)
        panic("Module " + name_ + ": call to invalid module");
    if (repeat == 0)
        panic("Module " + name_ + ": call repeat count must be >= 1");
    for (QubitId q : args) {
        if (q >= qubitNames.size()) {
            panic(csprintf("Module %s: call arg %u out of range",
                           name_.c_str(), q));
        }
    }
    addRawOperation(Operation::makeCall(callee, std::move(args), repeat));
}

void
Module::addOperation(Operation op)
{
    if (op.isCall())
        addCall(op.callee, std::move(op.operands), op.repeat);
    else
        addGate(op.kind, std::move(op.operands), op.angle);
}

void
Module::addRawOperation(Operation op)
{
    if (op.isCall())
        callOps_.push_back(static_cast<uint32_t>(ops_.size()));
    ++kindCounts_[static_cast<size_t>(op.kind)];
    ops_.push_back(std::move(op));
}

void
Module::setOps(std::vector<Operation> new_ops)
{
    ops_ = std::move(new_ops);
    callOps_.clear();
    kindCounts_.fill(0);
    for (size_t i = 0; i < ops_.size(); ++i) {
        if (ops_[i].isCall())
            callOps_.push_back(static_cast<uint32_t>(i));
        ++kindCounts_[static_cast<size_t>(ops_[i].kind)];
    }
}

const std::string &
Module::qubitName(QubitId q) const
{
    if (q >= qubitNames.size())
        panic(csprintf("Module %s: qubit %u out of range", name_.c_str(), q));
    return qubitNames[q];
}

uint64_t
Module::structuralHash() const
{
    // FNV-1a over the structural fields (see the header for what is
    // deliberately excluded); a gate's default callee and repeat fold
    // in one step through gateTail.
    Fnv1aFold fold;
    fold.u64(numParams_);
    fold.u64(qubitNames.size());
    fold.u64(ops_.size());
    for (const auto &op : ops_) {
        fold.u64(static_cast<uint64_t>(op.kind));
        if (op.callee == invalidModule && op.repeat == 1) {
            fold.hash = fold.hash * gateTailPower +
                        gateTail[fold.hash & 0xff];
        } else {
            fold.u64(op.callee);
            fold.u64(op.repeat);
        }
        fold.u64(op.operands.size());
        for (QubitId q : op.operands)
            fold.u64(q);
    }
    return fold.hash;
}

} // namespace msq
