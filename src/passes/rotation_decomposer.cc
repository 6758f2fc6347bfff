#include "passes/rotation_decomposer.hh"

#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/** Single-qubit primitives an approximation sequence draws from. */
constexpr GateKind sequenceAlphabet[] = {
    GateKind::H,    GateKind::T, GateKind::Tdag, GateKind::S,
    GateKind::Sdag, GateKind::X, GateKind::Z,
};

/** True when g2 immediately cancels g1 (would shorten the chain). */
constexpr bool
cancels(GateKind g1, GateKind g2)
{
    switch (g1) {
      case GateKind::H:
      case GateKind::X:
      case GateKind::Z:
        return g2 == g1; // involutions
      case GateKind::T:
        return g2 == GateKind::Tdag;
      case GateKind::Tdag:
        return g2 == GateKind::T;
      case GateKind::S:
        return g2 == GateKind::Sdag;
      case GateKind::Sdag:
        return g2 == GateKind::S;
      default:
        return false;
    }
}

constexpr size_t alphabetSize = std::size(sequenceAlphabet);

/**
 * cancelledBy[i] is the alphabet index of the letter that cancels
 * letter i, taken from cancels() at compile time. The extra entry
 * alphabetSize stands for "no letter kept yet"; no draw matches it.
 */
constexpr auto cancelledBy = [] {
    std::array<size_t, alphabetSize + 1> inverse{};
    inverse.fill(alphabetSize);
    for (size_t i = 0; i < alphabetSize; ++i)
        for (size_t j = 0; j < alphabetSize; ++j)
            if (cancels(sequenceAlphabet[i], sequenceAlphabet[j]))
                inverse[i] = j;
    return inverse;
}();

static_assert(
    [] {
        for (size_t i = 0; i < alphabetSize; ++i)
            for (size_t j = 0; j < alphabetSize; ++j)
                if (cancels(sequenceAlphabet[i], sequenceAlphabet[j]) !=
                    (cancelledBy[i] == j))
                    return false;
        return true;
    }(),
    "each letter is cancelled by at most one letter, its cancelledBy");

uint64_t
angleSeed(GateKind kind, double angle)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(angle));
    std::memcpy(&bits, &angle, sizeof(bits));
    return hashMix64(bits ^ hashString(gateName(kind)));
}

/**
 * Draw the approximation sequence of a rotation of @p angle about the
 * axis of @p kind, calling @p set(i, letter) for its positions i <
 * @p length. Every draw is set; the position advances only when the
 * draw does not cancel the last kept letter, so a rejected draw is
 * overwritten by the next one without a branch.
 */
template <typename Set>
void
drawSequence(GateKind kind, double angle, size_t length, Set set)
{
    if (!isRotationGate(kind))
        panic(std::string("sequenceForAngle: not a rotation gate: ") +
              gateName(kind));
    SplitMix64 rng(angleSeed(kind, angle));
    size_t last = alphabetSize;
    for (size_t kept = 0; kept < length;) {
        const auto next = static_cast<size_t>(rng.nextBelow(alphabetSize));
        set(kept, sequenceAlphabet[next]);
        const bool keep = next != cancelledBy[last];
        kept += keep;
        last = keep ? next : last;
    }
}

/**
 * Append the gates of sequenceForAngle(@p kind, @p angle, @p length),
 * each on @p target, to @p out: copies of one prebuilt gate whose kinds
 * are then drawn in place, so no gate is built from a fresh operand
 * list and no letter sequence is materialized.
 */
void
appendSequence(GateKind kind, double angle, size_t length, QubitId target,
               std::vector<Operation> &out)
{
    const size_t base = out.size();
    out.resize(base + length, Operation(GateKind::H, {target}));
    Operation *gates = out.data() + base;
    drawSequence(kind, angle, length,
                 [gates](size_t i, GateKind g) { gates[i].kind = g; });
}

} // anonymous namespace

RotationDecomposerPass::RotationDecomposerPass(Config config)
    : config(config)
{
    if (config.epsilon <= 0.0 || config.epsilon >= 1.0)
        fatal("rotation decomposer: epsilon must be in (0, 1)");
}

unsigned
RotationDecomposerPass::derivedLength() const
{
    if (config.sequenceLength != 0)
        return config.sequenceLength;
    // T-count of state-of-the-art single-qubit synthesis is about
    // 3 log2(1/eps); interleaved Clifford gates roughly quadruple the
    // total operation count (matches the paper's "several thousand"
    // ballpark at high precision).
    double log2_inv_eps = std::log2(1.0 / config.epsilon);
    auto t_count = static_cast<unsigned>(std::ceil(3.02 * log2_inv_eps));
    return 4 * t_count + 3;
}

std::vector<GateKind>
RotationDecomposerPass::sequenceForAngle(GateKind kind, double angle,
                                         unsigned length)
{
    std::vector<GateKind> seq(length);
    drawSequence(kind, angle, length,
                 [&seq](size_t i, GateKind g) { seq[i] = g; });
    return seq;
}

void
RotationDecomposerPass::run(Program &prog)
{
    unsigned length = derivedLength();

    // One outlined module per distinct (axis, angle-bits), shared across
    // the whole program.
    std::map<std::pair<int, uint64_t>, ModuleId> outlined;
    unsigned next_outline_id = 0;

    auto outline_module = [&](GateKind kind, double angle) -> ModuleId {
        uint64_t bits;
        std::memcpy(&bits, &angle, sizeof(bits));
        auto key = std::make_pair(static_cast<int>(kind), bits);
        auto it = outlined.find(key);
        if (it != outlined.end())
            return it->second;

        std::string mod_name;
        do {
            mod_name = csprintf("%s_seq_%u", gateName(kind),
                                next_outline_id++);
        } while (prog.findModule(mod_name) != invalidModule);
        ModuleId id = prog.addModule(mod_name);
        Module &mod = prog.module(id);
        QubitId target = mod.addParam("q");
        std::vector<Operation> body;
        body.reserve(length);
        appendSequence(kind, angle, length, target, body);
        mod.setOps(std::move(body));
        mod.setNoInline(true);
        outlined.emplace(key, id);
        return id;
    };

    for (ModuleId id : prog.bottomUpOrder()) {
        Module &mod = prog.module(id);
        const size_t rotations =
            mod.localCount(GateKind::Rx) + mod.localCount(GateKind::Ry) +
            mod.localCount(GateKind::Rz);
        if (rotations == 0)
            continue;

        std::vector<Operation> rewritten;
        rewritten.reserve(mod.numOps() +
                          (config.outline ? 0 : rotations * (length - 1)));
        for (const auto &op : mod.ops()) {
            if (!isRotationGate(op.kind)) {
                rewritten.push_back(op);
                continue;
            }
            QubitId target = op.operands[0];
            if (config.outline) {
                ModuleId callee = outline_module(op.kind, op.angle);
                rewritten.push_back(
                    Operation::makeCall(callee, {target}));
            } else {
                appendSequence(op.kind, op.angle, length, target,
                               rewritten);
            }
        }
        mod.setOps(std::move(rewritten));
    }
}

} // namespace msq
