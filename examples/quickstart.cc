/**
 * @file
 * Quickstart: build a small quantum program with the IR builder API,
 * compile it through the full MSQ toolflow, and compare the schedulers
 * on a Multi-SIMD(4,inf) machine with local scratchpad memories.
 *
 * Build & run:   ./build/examples/quickstart
 */

#include <iostream>

#include "core/toolflow.hh"
#include "frontend/qasm_emitter.hh"
#include "support/stats.hh"

using namespace msq;

namespace {

/** A toy program: repeated Toffoli mixing plus a rotation chain. */
Program
buildDemo()
{
    Program prog;

    ModuleId mixer = prog.addModule("mixer");
    {
        Module &mod = prog.module(mixer);
        QubitId a = mod.addParam("a");
        QubitId b = mod.addParam("b");
        QubitId c = mod.addParam("c");
        mod.addGate(GateKind::Toffoli, {a, b, c});
        mod.addGate(GateKind::Toffoli, {a, c, b});
        mod.addGate(GateKind::Rz, {c}, 0.3141);
    }

    ModuleId main_id = prog.addModule("main");
    {
        Module &mod = prog.module(main_id);
        auto reg = mod.addRegister("q", 6);
        for (QubitId q : reg)
            mod.addGate(GateKind::PrepZ, {q});
        for (QubitId q : reg)
            mod.addGate(GateKind::H, {q});
        // Two independent mixer streams, repeated: parallelism across
        // calls, seriality within each.
        mod.addCall(mixer, {reg[0], reg[1], reg[2]}, 50);
        mod.addCall(mixer, {reg[3], reg[4], reg[5]}, 50);
        for (QubitId q : reg)
            mod.addGate(GateKind::MeasZ, {q});
    }
    prog.setEntry(main_id);
    prog.validate();
    return prog;
}

} // namespace

int
main()
{
    std::cout << "MSQ quickstart: scheduling a toy program on "
              << MultiSimdArch(4).describe() << "\n\n";

    {
        Program prog = buildDemo();
        std::cout << "Input program (hierarchical QASM):\n";
        emitHierarchicalQasm(std::cout, prog);
    }

    ResultTable table("scheduler comparison (k=4, global comm + 8-qubit "
                      "local memories)");
    table.setHeader({"scheduler", "gates", "critical-path", "cycles",
                     "speedup-vs-seq", "speedup-vs-naive"});

    for (SchedulerKind kind : {SchedulerKind::Sequential,
                               SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
        Program prog = buildDemo(); // passes rewrite in place: fresh copy
        ToolflowConfig config;
        config.scheduler = kind;
        config.arch = MultiSimdArch(4, unbounded, 8);
        config.commMode = CommMode::GlobalWithLocalMem;
        ToolflowResult result = Toolflow(config).run(prog);

        table.beginRow();
        table.addCell(std::string(schedulerKindName(kind)));
        table.addCell(result.totalGates.str());
        table.addCell(
            static_cast<unsigned long long>(result.criticalPath));
        table.addCell(
            static_cast<unsigned long long>(result.scheduledCycles));
        table.addCell(result.speedupVsSequential, 2);
        table.addCell(result.speedupVsNaive, 2);
    }
    table.printAscii(std::cout);

    std::cout << "\nNext steps: see examples/grover_search.cc and "
                 "examples/architecture_explorer.cc, and the bench/ "
                 "binaries that regenerate each paper table/figure.\n";
    return 0;
}
