#include "passes/decompose_toffoli.hh"

namespace msq {

void
DecomposeToffoliPass::expandToffoli(QubitId a, QubitId b, QubitId c,
                                    std::vector<Operation> &out)
{
    // The 16-operation Clifford+T expansion from paper Fig. 4:
    //   H(c); CNOT(b,c); Tdag(c); CNOT(a,c); T(c); CNOT(b,c); Tdag(c);
    //   CNOT(a,c); Tdag(b); T(c); CNOT(a,b); H(c); Tdag(b); CNOT(a,b);
    //   T(a); S(b)
    using GK = GateKind;
    // Each gate copies one of six prebuilt operand shapes and sets its
    // kind, which is cheaper than building it from a fresh list.
    const Operation on_a(GK::T, {a}), on_b(GK::T, {b}), on_c(GK::T, {c});
    const Operation ab(GK::CNOT, {a, b}), ac(GK::CNOT, {a, c}),
        bc(GK::CNOT, {b, c});
    auto gate = [&out](const Operation &shape, GK kind) {
        out.emplace_back(shape).kind = kind;
    };
    gate(on_c, GK::H);
    gate(bc, GK::CNOT);
    gate(on_c, GK::Tdag);
    gate(ac, GK::CNOT);
    gate(on_c, GK::T);
    gate(bc, GK::CNOT);
    gate(on_c, GK::Tdag);
    gate(ac, GK::CNOT);
    gate(on_b, GK::Tdag);
    gate(on_c, GK::T);
    gate(ab, GK::CNOT);
    gate(on_c, GK::H);
    gate(on_b, GK::Tdag);
    gate(ab, GK::CNOT);
    gate(on_a, GK::T);
    gate(on_b, GK::S);
}

void
DecomposeToffoliPass::expandSwap(QubitId a, QubitId b,
                                 std::vector<Operation> &out)
{
    using GK = GateKind;
    out.emplace_back(GK::CNOT, QubitList{a, b});
    out.emplace_back(GK::CNOT, QubitList{b, a});
    out.emplace_back(GK::CNOT, QubitList{a, b});
}

void
DecomposeToffoliPass::expandFredkin(QubitId ctl, QubitId x, QubitId y,
                                    std::vector<Operation> &out)
{
    // Fredkin(ctl;x,y) = CNOT(y,x) . Toffoli(ctl,x,y) . CNOT(y,x)
    using GK = GateKind;
    out.emplace_back(GK::CNOT, QubitList{y, x});
    expandToffoli(ctl, x, y, out);
    out.emplace_back(GK::CNOT, QubitList{y, x});
}

void
DecomposeToffoliPass::run(Program &prog)
{
    for (ModuleId id : prog.bottomUpOrder()) {
        Module &mod = prog.module(id);
        const size_t toffolis = mod.localCount(GateKind::Toffoli);
        const size_t fredkins = mod.localCount(GateKind::Fredkin);
        const size_t swaps = mod.localCount(GateKind::Swap);
        if (toffolis + fredkins + swaps == 0)
            continue;

        // Room for every expansion: 16, 18 and 3 gates replace one.
        std::vector<Operation> rewritten;
        rewritten.reserve(mod.numOps() + 15 * toffolis + 17 * fredkins +
                          2 * swaps);
        for (const auto &op : mod.ops()) {
            switch (op.kind) {
              case GateKind::Toffoli:
                expandToffoli(op.operands[0], op.operands[1],
                              op.operands[2], rewritten);
                break;
              case GateKind::Fredkin:
                expandFredkin(op.operands[0], op.operands[1],
                              op.operands[2], rewritten);
                break;
              case GateKind::Swap:
                expandSwap(op.operands[0], op.operands[1], rewritten);
                break;
              default:
                rewritten.push_back(op);
                break;
            }
        }
        mod.setOps(std::move(rewritten));
    }
}

} // namespace msq
