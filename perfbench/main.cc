/**
 * @file
 * msq_perfbench: one workload of the MSQ compile benchmark per process.
 *
 *   msq_perfbench --workload compile-cold|serve-warm|sweep-arch
 *                 --seed N --seconds S --trace 0|1
 *                 [--root DIR] [--work-dir DIR]
 *
 * Prints the inputs, per-class rows and every metric by name with its
 * unit, then one JSON result line (see perfbench/README.md).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace {

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "msq_perfbench: %s\nusage: msq_perfbench --workload "
                 "compile-cold|serve-warm|sweep-arch --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--work-dir DIR]\n",
                 message);
    return 2;
}

bool
parseUnsigned(const char *text, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        uint64_t number = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, args.seed))
                return usage("--seed needs a number");
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, number) || number == 0 ||
                number > 3600)
                return usage("--seconds needs a number in [1, 3600]");
            args.seconds = static_cast<unsigned>(number);
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, number) || number > 1)
                return usage("--trace needs 0 or 1");
            args.trace = number == 1;
        } else if (flag == "--root") {
            args.root = value;
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    try {
        // Make the calibration buffer resident before any workload
        // allocation, so peak_rss_mb can leave it out exactly.
        perfbench::calibrationMs();
        if (args.workload == "compile-cold")
            return perfbench::runCompileCold(args);
        if (args.workload == "serve-warm")
            return perfbench::runServeWarm(args);
        if (args.workload == "sweep-arch")
            return perfbench::runSweepArch(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "msq_perfbench: %s\n", e.what());
        return 1;
    }
    return usage("unknown --workload");
}
