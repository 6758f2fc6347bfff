#include "passes/pass_manager.hh"

#include <cstdlib>
#include <optional>

#include "analysis/qubit_analyses.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "verify/verifier.hh"

namespace msq {

namespace {

/** Total operation count across every module of @p prog. */
uint64_t
totalProgramOps(const Program &prog)
{
    uint64_t total = 0;
    for (ModuleId id = 0; id < prog.numModules(); ++id)
        total += prog.module(id).numOps();
    return total;
}

} // anonymous namespace

PassManager::PassManager()
{
    const char *env = std::getenv("MSQ_VERIFY_AFTER_PASSES");
    verifyAfterPasses =
        env != nullptr && *env != '\0' && std::string(env) != "0";
}

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes.push_back(std::move(pass));
}

void
PassManager::run(Program &prog) const
{
    for (const auto &pass : passes) {
        {
            TraceSpan span(Telemetry::trace(),
                           std::string("pass:") + pass->name());
            std::optional<ScopedTimerMs> timer;
            if (metrics != nullptr) {
                timer.emplace(metrics->distribution(
                    csprintf("passes.%s.wall_ms", pass->name())));
            }
            pass->run(prog);
        }
        if (metrics != nullptr) {
            metrics->counter(csprintf("passes.%s.runs", pass->name()))
                .add(1);
            metrics->gauge(csprintf("passes.%s.ops_after", pass->name()))
                .set(static_cast<int64_t>(totalProgramOps(prog)));
        }
        if (!verifyAfterPasses)
            continue;
        DiagnosticEngine diags;
        if (!verifyProgram(prog, diags)) {
            panic(csprintf("pass '%s' left the program malformed "
                           "(%zu error(s)):\n",
                           pass->name(), diags.numErrors()) +
                  diags.formatAll());
        }
        // The verifier's V009 is intra-module only; recheck measurement
        // dominance across call boundaries so a pass that reorders or
        // inlines code cannot silently introduce a use of a measured
        // qubit (flatten rewrites exactly those boundaries).
        MeasurementDominance dominance = MeasurementDominance::analyze(prog);
        if (dominance.valid() && !dominance.clean()) {
            std::string detail;
            for (const MeasurementViolation &v : dominance.violations()) {
                const Module &mod = prog.module(v.module);
                detail += csprintf("  module %s, op %u: qubit %u ('%s') "
                                   "may be measured at this use\n",
                                   mod.name().c_str(), v.opIndex, v.qubit,
                                   mod.qubitName(v.qubit).c_str());
            }
            panic(csprintf("pass '%s' broke measurement dominance "
                           "(%zu violation(s)):\n",
                           pass->name(), dominance.violations().size()) +
                  detail);
        }
    }
    prog.validate();
}

} // namespace msq
