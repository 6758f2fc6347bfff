/**
 * @file
 * Example: compile Grover's Search end-to-end and study how the two
 * communication-aware schedulers (RCP vs LPFS) and local scratchpad
 * memories affect its runtime on Multi-SIMD machines of varying width.
 *
 * Usage: grover_search [n]     (search space 2^n, default n = 10)
 */

#include <iostream>
#include <limits>

#include "analysis/resource_estimator.hh"
#include "core/toolflow.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

using namespace msq;

int
main(int argc, char **argv)
{
    uint64_t arg = 10;
    if (argc > 1 &&
        !parseCount(argv[1], arg, 1, std::numeric_limits<unsigned>::max())) {
        std::cerr << "usage: grover_search [n]\n";
        return 2;
    }
    const unsigned n = static_cast<unsigned>(arg);

    std::cout << "Grover's Search, database of 2^" << n << " elements\n\n";

    {
        Program prog = workloads::buildGrovers(n);
        ResourceEstimator qubits(prog);
        std::cout << "minimum qubits Q (sequential, ancilla reuse): "
                  << qubits.programQubits() << "\n\n";
    }

    ResultTable table("schedulers x architectures (speedup over the "
                      "naive movement model)");
    table.setHeader({"scheduler", "arch", "cycles", "speedup-vs-naive"});

    for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
        for (unsigned k : {2u, 4u}) {
            for (uint64_t local : {uint64_t{0}, unbounded}) {
                Program prog = workloads::buildGrovers(n);
                ToolflowConfig config;
                config.scheduler = kind;
                config.arch = MultiSimdArch(k, unbounded, local);
                config.commMode = local == 0
                                      ? CommMode::Global
                                      : CommMode::GlobalWithLocalMem;
                ToolflowResult result = Toolflow(config).run(prog);

                table.beginRow();
                table.addCell(std::string(schedulerKindName(kind)));
                table.addCell(config.arch.describe());
                table.addCell(withCommas(result.scheduledCycles));
                table.addCell(result.speedupVsNaive, 2);
            }
        }
    }
    table.printAscii(std::cout);

    std::cout << "\nGrover's is mostly serial (critical-path bound "
                 "~1.6x), so the wins come from movement elimination "
                 "and local memories rather than width.\n";
    return 0;
}
