/**
 * @file
 * The end-to-end MSQ toolflow (paper Fig. 3 context + §3): program in,
 * decomposition passes, flattening, hierarchical scheduling, and the
 * headline metrics out. This is the library's primary public entry point;
 * the benchmark harness and the examples are thin wrappers around it.
 */

#ifndef MSQ_CORE_TOOLFLOW_HH
#define MSQ_CORE_TOOLFLOW_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "arch/multi_simd.hh"
#include "ir/program.hh"
#include "passes/flatten.hh"
#include "passes/rotation_decomposer.hh"
#include "sched/coarse.hh"
#include "sched/leaf_scheduler.hh"
#include "sched/lpfs.hh"
#include "sched/opt.hh"
#include "sched/rcp.hh"
#include "support/count.hh"
#include "support/telemetry.hh"
#include "workloads/workloads.hh"

namespace msq {

/** Which fine-grained scheduler drives leaf modules. */
enum class SchedulerKind : uint8_t {
    Sequential, ///< baseline: one op per timestep
    Rcp,        ///< Ready Critical Path (Algorithm 1)
    Lpfs,       ///< Longest Path First (Algorithm 2)
    Opt,        ///< branch-and-bound optimal tier with fallback
};

/** @return "sequential" / "rcp" / "lpfs" / "opt". */
const char *schedulerKindName(SchedulerKind kind);

/** @return the kind schedulerKindName() calls @p name, if any. */
std::optional<SchedulerKind> parseSchedulerKind(std::string_view name);

/** Complete configuration of one toolflow run. */
struct ToolflowConfig
{
    SchedulerKind scheduler = SchedulerKind::Lpfs;
    MultiSimdArch arch{4, unbounded, 0};
    CommMode commMode = CommMode::Global;

    /**
     * Flattening threshold (paper FTh). The paper uses 2M gate
     * operations for its full-scale benchmarks (3M for SHA-1); the
     * library default of 30k plays the same role for the scaled
     * workloads, flattening a comparable fraction of modules.
     */
    uint64_t flattenThreshold = 30'000;

    /** Rotation decomposition settings (inline vs outlined, epsilon). */
    RotationDecomposerPass::Config rotations;

    /** RCP priority weights (w_op, w_dist, w_slack; paper uses 1,1,1). */
    RcpScheduler::Weights rcpWeights;

    /** LPFS options (l, SIMD, Refill; paper runs l=1 with both on). */
    LpfsScheduler::Options lpfsOptions;

    /**
     * OptScheduler options (node budget, size cap, fallback tier). Its
     * certificate is judged under @ref commMode, the communication
     * model the schedule is costed with.
     */
    OptScheduler::Options optOptions;

    /** Optional explicit width sweep for the coarse scheduler. */
    std::vector<unsigned> coarseWidths;

    /**
     * Scheduling fan-out: leaf (module x width) tasks and non-leaf
     * width sweeps run on this many threads. 0 (the default) selects
     * the hardware concurrency; 1 is the exact sequential legacy path.
     * Schedules are bit-identical for every value (DESIGN.md §9).
     */
    unsigned numThreads = 0;

    /**
     * Memoize leaf-schedule results keyed on (module structural hash,
     * scheduler fingerprint, arch, width) so structurally identical
     * flattened leaves are scheduled once (sched/leaf_cache.hh).
     */
    bool leafCache = true;

    /**
     * Optional externally owned cache to use instead of a run-local
     * one (e.g. shared across the runs of a sweep). Overrides
     * @ref leafCache when set.
     */
    std::shared_ptr<LeafScheduleCache> sharedLeafCache;

    /**
     * Optional externally owned metrics registry. When null (the
     * default) run() records into a run-local registry and returns
     * its snapshot in ToolflowResult::telemetry; when set, metrics
     * accumulate into the given registry instead (and the snapshot
     * reflects its state after the run). Every non-wall-clock value
     * is thread-count-invariant (DESIGN.md §10).
     */
    MetricsRegistry *metrics = nullptr;
};

/** Everything a toolflow run reports. */
struct ToolflowResult
{
    /** Total gate operations = sequential execution cycles. */
    Count totalGates;

    /** Hierarchical critical path estimate (Fig. 6's "cp" bound). */
    uint64_t criticalPath = 0;

    /** Minimum qubits Q (Table 1 metric). */
    uint64_t qubits = 0;

    /** Scheduled whole-program cycles under the configured CommMode. */
    uint64_t scheduledCycles = 0;

    /** totalGates / scheduledCycles (Fig. 6 metric, CommMode::None). */
    double speedupVsSequential = 0.0;

    /**
     * (5 * totalGates) / scheduledCycles: speedup over the naive
     * movement model that teleports data every timestep (Figs. 7-9).
     */
    double speedupVsNaive = 0.0;

    /** Per-module schedule details. */
    ProgramSchedule schedule;

    /** Leaf-schedule cache traffic of this run (0/0 when disabled). */
    uint64_t leafCacheHits = 0;
    uint64_t leafCacheMisses = 0;

    /**
     * Structured metrics recorded during the run: per-pass timings,
     * per-leaf gate/cycle distributions, communication totals, cache
     * traffic, and the headline gauges (toolflow.*). Serializable via
     * MetricsSnapshot::writeJson(); deterministic modulo "*_ms" wall-clock
     * distributions (DESIGN.md §10).
     */
    MetricsSnapshot telemetry;
};

/** Orchestrates passes and schedulers per a ToolflowConfig. */
class Toolflow
{
  public:
    explicit Toolflow(ToolflowConfig config);

    /**
     * Run the full pipeline on @p prog (rewritten in place by the
     * decomposition and flattening passes).
     */
    ToolflowResult run(Program &prog) const;

    /**
     * The lowering half of run(): Toffoli decomposition, rotation
     * decomposition and flattening below the threshold, all per this
     * configuration. Every tool that schedules or bounds a program
     * lowers it through here, so they all see the program run()
     * schedules.
     */
    void lower(Program &prog) const;

    /**
     * Build @p spec and lower it under the default configuration with
     * the workload's rotationPresetFor() preset: the exact program
     * run() schedules for that workload.
     */
    static Program lowerWorkload(const workloads::WorkloadSpec &spec);

    const ToolflowConfig &config() const { return config_; }

    /** Instantiate a leaf scheduler of the given kind (defaults). */
    static std::unique_ptr<LeafScheduler> makeScheduler(SchedulerKind kind);

    /** Instantiate this configuration's leaf scheduler (with its RCP
     * weights / LPFS options applied). */
    std::unique_ptr<LeafScheduler> makeConfiguredScheduler() const;

    /**
     * Rotation decomposition preset per benchmark: Shor's outlines
     * rotations as noInline blackboxes (paper §5.4); every other
     * benchmark decomposes them inline.
     */
    static RotationDecomposerPass::Config
    rotationPresetFor(const std::string &workload_short_name);

  private:
    /** lower() recording pass metrics into @p reg. */
    void lower(Program &prog, MetricsRegistry &reg) const;

    ToolflowConfig config_;
};

} // namespace msq

#endif // MSQ_CORE_TOOLFLOW_HH
