/**
 * @file
 * Shared helpers for the bench binaries.
 */

#ifndef MSQ_BENCH_COMMON_HH
#define MSQ_BENCH_COMMON_HH

#include <iostream>
#include <string>

#include "core/toolflow.hh"
#include "support/telemetry.hh"
#include "workloads/workloads.hh"

namespace msq {
namespace bench {

/** One toolflow run for a named workload spec. */
inline ToolflowResult
runWorkload(const workloads::WorkloadSpec &spec, SchedulerKind scheduler,
            CommMode mode, const MultiSimdArch &arch)
{
    Program prog = spec.build();
    ToolflowConfig config;
    config.scheduler = scheduler;
    config.commMode = mode;
    config.arch = arch;
    config.rotations = Toolflow::rotationPresetFor(spec.shortName);
    return Toolflow(config).run(prog);
}

/**
 * Print the standard bench header. Also honors the MSQ_METRICS /
 * MSQ_TRACE environment fallback, so any bench binary can emit its
 * telemetry without new flags.
 */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    Telemetry::initFromEnv();
    std::cout << "==========================================================\n"
              << title << "\n"
              << "reproduces: " << paper_ref << "\n"
              << "==========================================================\n\n";
}

} // namespace bench
} // namespace msq

#endif // MSQ_BENCH_COMMON_HH
