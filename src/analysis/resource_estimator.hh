/**
 * @file
 * Hierarchical resource estimation (paper §3.1): one fold over the call
 * graph that yields, per module and without unrolling, the gate mix and
 * gate total of one invocation (transitively called modules and repeat
 * counts included), the critical path (paper Fig. 6's bound), the
 * minimum qubit count Q (Table 1), and how often each module runs in
 * one program execution. Totals pick flattening thresholds (Fig. 5) and
 * serve as the sequential-execution baseline of speedups.
 *
 * Construction runs one callees-first pass for the mix and Q and one
 * top-down pass over the same order that multiplies invocation counts
 * down the call graph. Gate counts come from each module's per-kind
 * local counts, so neither pass reads every op. The critical paths,
 * which do, are swept callees-first on the first criticalPath() call,
 * so callers that need only counts never pay for them; a caller that
 * already holds the leaves' lengths passes them in and sweeps only the
 * non-leaves.
 *
 * Counts are exact 128-bit Counts and clip only past 2^128-1; a clipped
 * count is a sound *lower* bound. Critical paths are saturating 64-bit
 * cycle lengths (2^64-1 when clipped).
 *
 * Q model: a module's parameters alias caller qubits; its locals
 * (ancilla) live for one invocation and are reclaimed on return, so
 * sibling calls reuse the same ancilla pool and only the deepest call
 * chain's demand counts:
 *
 *   Q(m) = numQubits(m) + max(0, max over calls c of
 *                                 (Q(callee(c)) - numParams(callee(c))))
 */

#ifndef MSQ_ANALYSIS_RESOURCE_ESTIMATOR_HH
#define MSQ_ANALYSIS_RESOURCE_ESTIMATOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "ir/program.hh"
#include "support/count.hh"
#include "support/diagnostic.hh"

namespace msq {

/** Per-kind operation counts of one invocation (calls expanded). */
struct GateMix
{
    std::array<Count, numGateKinds> counts{};

    Count count(GateKind kind) const;

    /** T + Tdag: the magic-state budget. */
    Count tCount() const;

    /** CNOT + CZ operations. */
    Count twoQubitCount() const;

    /** All gate operations. */
    Count total() const;
};

/** Hierarchical estimates for every module reachable from the entry. */
class ResourceEstimator
{
  public:
    /** Produces the unit-weight critical path of one leaf module
     * (typically the one a compile already memoized with the leaf's
     * bounds, MakespanBounds::criticalPath). */
    using LeafLengthFn = std::function<uint64_t(const Module &, ModuleId)>;

    /**
     * Analyze all modules reachable from @p prog's entry.
     * @param diags optional sink for B006: one line-numbered warning at
     *        each call site where an invocation count first clips.
     * @param leaf_lengths called once per reachable leaf by the first
     *        criticalPath() call, so it must stay valid until then;
     *        empty sweeps each leaf with criticalPathLength(mod).
     */
    explicit ResourceEstimator(const Program &prog,
                               DiagnosticEngine *diags = nullptr,
                               LeafLengthFn leaf_lengths = {});

    /** Gate mix of one invocation of @p id. */
    const GateMix &mix(ModuleId id) const;
    const GateMix &programMix() const { return mix(prog->entry()); }

    /** Gate operations of one invocation of @p id (== mix(id).total()). */
    Count totalGates(ModuleId id) const { return mix(id).total(); }
    Count programGates() const { return totalGates(prog->entry()); }

    /** Critical path (cycles) of one invocation of @p id: a gate weighs
     * 1, a call its callee's critical path times its repeat count. The
     * first call sweeps every analyzed module (thread-safe; the program
     * must be unchanged since construction). */
    uint64_t criticalPath(ModuleId id) const;
    uint64_t programCriticalPath() const
    {
        return criticalPath(prog->entry());
    }

    /** Qubits one sequential invocation of @p id needs (Q model above). */
    uint64_t qubitsNeeded(ModuleId id) const;
    uint64_t programQubits() const { return qubitsNeeded(prog->entry()); }

    /** Times @p id runs in one program execution (entry = 1, modules
     * not reachable from the entry = 0). */
    Count invocations(ModuleId id) const;

    /** Modules reachable from the entry, callees first. */
    const std::vector<ModuleId> &analyzedModules() const { return order; }

  private:
    const Program *prog;
    LeafLengthFn leafLengths;
    std::vector<ModuleId> order;
    std::vector<GateMix> mixes;       ///< indexed by ModuleId
    mutable std::once_flag swept;     ///< guards lengths
    mutable std::vector<uint64_t> lengths; ///< indexed by ModuleId
    std::vector<uint64_t> demand;     ///< indexed by ModuleId
    std::vector<Count> runs;          ///< indexed by ModuleId
};

/**
 * Histogram of per-module gate counts over fixed ranges, reproducing the
 * bucketing of paper Fig. 5.
 */
class ModuleHistogram
{
  public:
    /** The paper's Fig. 5 bucket boundaries (upper bounds, inclusive). */
    static const std::vector<uint64_t> &bucketBounds();

    /** Human-readable label of bucket @p index, e.g. "1k - 5k". */
    static std::string bucketLabel(size_t index);

    /** Build the histogram of @p estimator's module totals. */
    explicit ModuleHistogram(const ResourceEstimator &estimator);

    /** Number of modules in bucket @p index. */
    uint64_t count(size_t index) const { return counts_.at(index); }

    uint64_t totalModules() const { return total; }

  private:
    std::vector<uint64_t> counts_;
    uint64_t total = 0;
};

} // namespace msq

#endif // MSQ_ANALYSIS_RESOURCE_ESTIMATOR_HH
