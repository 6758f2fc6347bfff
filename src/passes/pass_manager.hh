/**
 * @file
 * Minimal pass infrastructure: a Pass rewrites a Program in place; the
 * PassManager runs a sequence of passes, mirroring the ScaffCC/LLVM pass
 * pipeline the paper's toolflow is built on (§3.1).
 */

#ifndef MSQ_PASSES_PASS_MANAGER_HH
#define MSQ_PASSES_PASS_MANAGER_HH

#include <memory>
#include <string>
#include <vector>

#include "ir/program.hh"
#include "support/telemetry.hh"

namespace msq {

/** A program-level rewriting pass. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Short identifier used in logs, e.g. "decompose-toffoli". */
    virtual const char *name() const = 0;

    /** Rewrite @p prog in place. */
    virtual void run(Program &prog) = 0;
};

/** Runs a pipeline of passes in order. */
class PassManager
{
  public:
    PassManager();

    /** Append @p pass to the pipeline. */
    void add(std::unique_ptr<Pass> pass);

    /** Run every pass, in order, on @p prog; validates afterwards. */
    void run(Program &prog) const;

    /**
     * Debug mode: run the IR verifier plus the interprocedural
     * measurement-dominance analysis after every pass and panic —
     * naming the offending pass and listing every diagnostic — when a
     * pass leaves the program malformed. Defaults to the value of the
     * MSQ_VERIFY_AFTER_PASSES environment variable (any non-empty value
     * other than "0" enables it).
     */
    void setVerifyAfterPasses(bool enabled) { verifyAfterPasses = enabled; }

    /**
     * Optional telemetry sink: run() then records, per pass, a
     * "passes.<name>.runs" counter, a "passes.<name>.wall_ms"
     * wall-clock distribution, and a "passes.<name>.ops_after" gauge
     * (total
     * program operations once the pass finishes), plus a trace span
     * per pass on the global recorder. Null (the default) records
     * nothing.
     */
    void setMetrics(MetricsRegistry *registry) { metrics = registry; }

  private:
    std::vector<std::unique_ptr<Pass>> passes;
    bool verifyAfterPasses = false;
    MetricsRegistry *metrics = nullptr;
};

} // namespace msq

#endif // MSQ_PASSES_PASS_MANAGER_HH
