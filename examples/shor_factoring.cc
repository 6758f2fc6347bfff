/**
 * @file
 * Example: Shor's factoring through the toolflow, illustrating the
 * paper's §5.4 observation — decomposed rotations stay blackbox modules
 * in the coarse-grained schedule, so Shor's (unlike the rest of the
 * suite) keeps speeding up as SIMD regions are added.
 *
 * Usage: shor_factoring [n]    (factor an n-bit number, default 8)
 */

#include <iostream>
#include <limits>

#include "core/toolflow.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

using namespace msq;

int
main(int argc, char **argv)
{
    uint64_t arg = 8;
    if (argc > 1 &&
        !parseCount(argv[1], arg, 1, std::numeric_limits<unsigned>::max())) {
        std::cerr << "usage: shor_factoring [n]\n";
        return 2;
    }
    const unsigned n = static_cast<unsigned>(arg);

    std::cout << "Shor's factoring of an " << n << "-bit modulus\n\n";

    ResultTable table("k sensitivity (LPFS, outlined rotations, "
                      "infinite local memories)");
    table.setHeader({"k", "gates", "critical-path", "cycles",
                     "speedup-vs-naive"});

    for (unsigned k : {2u, 4u, 8u, 16u, 32u}) {
        Program prog = workloads::buildShors(n);
        ToolflowConfig config;
        config.scheduler = SchedulerKind::Lpfs;
        config.arch = MultiSimdArch(k, unbounded, unbounded);
        config.commMode = CommMode::GlobalWithLocalMem;
        config.rotations = Toolflow::rotationPresetFor("shors");
        ToolflowResult result = Toolflow(config).run(prog);

        table.beginRow();
        table.addCell(static_cast<unsigned long long>(k));
        table.addCell(withCommas(result.totalGates));
        table.addCell(withCommas(result.criticalPath));
        table.addCell(withCommas(result.scheduledCycles));
        table.addCell(result.speedupVsNaive, 2);
    }
    table.printAscii(std::cout);

    std::cout << "\nEach Fourier-basis constant-add fans out one "
                 "distinct-angle rotation per work qubit; decomposed "
                 "into serial blackboxes, every concurrent rotation "
                 "needs its own SIMD region (paper Table 2 / Fig. 9).\n";
    return 0;
}
