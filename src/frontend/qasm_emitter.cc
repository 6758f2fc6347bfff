#include "frontend/qasm_emitter.hh"

#include <vector>

#include "support/strings.hh"

namespace msq {

void
emitHierarchicalQasm(std::ostream &os, const Program &prog)
{
    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        std::vector<std::string> params;
        for (QubitId q = 0; q < mod.numParams(); ++q)
            params.push_back(mod.qubitName(q));
        os << ".module " << mod.name() << " " << join(params, " ") << "\n";
        for (auto q = static_cast<QubitId>(mod.numParams());
             q < mod.numQubits(); ++q)
            os << "    qbit " << mod.qubitName(q) << "\n";
        for (const auto &op : mod.ops()) {
            std::vector<std::string> args;
            for (QubitId q : op.operands)
                args.push_back(mod.qubitName(q));
            if (op.isCall()) {
                os << "    call";
                if (op.repeat != 1)
                    os << "[x" << op.repeat << "]";
                os << " " << prog.module(op.callee).name() << " "
                   << join(args, " ") << "\n";
            } else if (isRotationGate(op.kind)) {
                os << "    " << gateName(op.kind) << "("
                   << csprintf("%.12g", op.angle) << ") " << join(args, " ")
                   << "\n";
            } else {
                os << "    " << gateName(op.kind) << " " << join(args, " ")
                   << "\n";
            }
        }
        os << ".end\n\n";
    }
}

} // namespace msq
