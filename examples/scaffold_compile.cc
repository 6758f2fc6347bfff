/**
 * @file
 * Example: a miniature `scaffcc`-style command-line compiler. Reads a
 * Scaffold-subset source file (or a built-in demo program when no file
 * is given), runs the decomposition + flattening + scheduling pipeline,
 * prints the schedule summary, and emits hierarchical QASM.
 *
 * Usage: scaffold_compile [file.scaffold]
 *                         [--scheduler rcp|lpfs|opt|sequential]
 *                         [--k N] [--local N] [--emit-qasm]
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/request.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "frontend/qasm_emitter.hh"
#include "support/logging.hh"
#include "support/strings.hh"

using namespace msq;

namespace {

const char *demoSource = R"(
// Demo: an entangling kernel repeated inside a measurement loop.
module bell_pair(qbit a, qbit b) {
    H(a);
    CNOT(a, b);
}

module kernel(qbit q[4]) {
    qbit anc;
    bell_pair(q[0], q[1]);
    bell_pair(q[2], q[3]);
    Toffoli(q[0], q[2], anc);
    Rz(anc, 0.196349540849);
    Toffoli(q[0], q[2], anc);
}

module main() {
    qbit q[4];
    repeat 100 kernel(q);
    MeasZ(q[0]);
    MeasZ(q[1]);
}
)";

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool emit_qasm = false;
    CompileRequest request;
    std::string error;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // Each value flag sets one compile-request key.
        const char *key = arg == "--scheduler" ? "scheduler"
                          : arg == "--k"       ? "k"
                          : arg == "--local"   ? "local_mem"
                                               : nullptr;
        if (arg == "--emit-qasm") {
            emit_qasm = true;
        } else if (key && i + 1 < argc) {
            if (!setRequestField(request, key, argv[++i], error)) {
                std::cerr << "scaffold_compile: " << arg << ": " << error
                          << "\n";
                return 2;
            }
        } else {
            path = arg;
        }
    }
    // No topology flag, so the request always describes a machine.
    ToolflowConfig config = *toolflowConfig(request, error);
    config.rotations.sequenceLength = 100;

    try {
        Program prog = path.empty() ? parseScaffold(demoSource)
                                    : parseScaffoldFile(path);
        std::cout << "parsed " << prog.reachableModules().size()
                  << " reachable module(s); entry = "
                  << prog.module(prog.entry()).name() << "\n";

        ToolflowResult result = Toolflow(config).run(prog);
        std::cout << "target:          " << config.arch.describe() << "\n"
                  << "scheduler:       "
                  << schedulerKindName(config.scheduler) << "\n"
                  << "total gates:     " << withCommas(result.totalGates)
                  << "\n"
                  << "critical path:   "
                  << withCommas(result.criticalPath) << "\n"
                  << "qubits (Q):      " << result.qubits << "\n"
                  << "scheduled cycles: "
                  << withCommas(result.scheduledCycles) << "\n"
                  << csprintf("speedup vs sequential: %.2f\n",
                              result.speedupVsSequential)
                  << csprintf("speedup vs naive:      %.2f\n",
                              result.speedupVsNaive);

        if (emit_qasm) {
            std::cout << "\n--- hierarchical QASM (post-pipeline) ---\n";
            emitHierarchicalQasm(std::cout, prog);
        }
    } catch (const FatalError &err) {
        std::cerr << err.what() << "\n";
        return 1;
    }
    return 0;
}
