#include "core/toolflow.hh"

#include <limits>

#include "analysis/resource_estimator.hh"
#include "passes/decompose_toffoli.hh"
#include "passes/pass_manager.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "support/logging.hh"

namespace msq {

namespace {

/** Clamp a uint64 metric onto the int64 gauge domain. */
int64_t
gaugeValue(uint64_t v)
{
    const uint64_t max =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
    return static_cast<int64_t>(v > max ? max : v);
}

} // anonymous namespace

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Sequential:
        return "sequential";
      case SchedulerKind::Rcp:
        return "rcp";
      case SchedulerKind::Lpfs:
        return "lpfs";
      case SchedulerKind::Opt:
        return "opt";
    }
    panic("unknown SchedulerKind");
}

std::optional<SchedulerKind>
parseSchedulerKind(std::string_view name)
{
    for (SchedulerKind kind : {SchedulerKind::Sequential, SchedulerKind::Rcp,
                               SchedulerKind::Lpfs, SchedulerKind::Opt})
        if (name == schedulerKindName(kind))
            return kind;
    return std::nullopt;
}

Toolflow::Toolflow(ToolflowConfig config) : config_(std::move(config))
{
    config_.arch.validate();
}

std::unique_ptr<LeafScheduler>
Toolflow::makeScheduler(SchedulerKind kind)
{
    ToolflowConfig config;
    config.scheduler = kind;
    return Toolflow(std::move(config)).makeConfiguredScheduler();
}

std::unique_ptr<LeafScheduler>
Toolflow::makeConfiguredScheduler() const
{
    switch (config_.scheduler) {
      case SchedulerKind::Sequential:
        return std::make_unique<SequentialScheduler>();
      case SchedulerKind::Rcp:
        return std::make_unique<RcpScheduler>(config_.rcpWeights);
      case SchedulerKind::Lpfs:
        return std::make_unique<LpfsScheduler>(config_.lpfsOptions);
      case SchedulerKind::Opt:
        // The certificate must be judged under the same communication
        // model the coarse scheduler costs schedules with.
        return std::make_unique<OptScheduler>(config_.optOptions,
                                              config_.commMode);
    }
    panic("unknown SchedulerKind");
}

RotationDecomposerPass::Config
Toolflow::rotationPresetFor(const std::string &workload_short_name)
{
    RotationDecomposerPass::Config config;
    if (workload_short_name == "shors")
        config.outline = true;
    return config;
}

void
Toolflow::lower(Program &prog) const
{
    MetricsRegistry local;
    lower(prog, config_.metrics ? *config_.metrics : local);
}

void
Toolflow::lower(Program &prog, MetricsRegistry &reg) const
{
    TraceSpan span(Telemetry::trace(), "toolflow-passes");
    ScopedTimerMs timer(reg.distribution("toolflow.passes_ms"));
    PassManager passes;
    passes.setMetrics(&reg);
    passes.add(std::make_unique<DecomposeToffoliPass>());
    passes.add(std::make_unique<RotationDecomposerPass>(config_.rotations));
    passes.add(std::make_unique<FlattenPass>(config_.flattenThreshold));
    passes.run(prog);
}

Program
Toolflow::lowerWorkload(const workloads::WorkloadSpec &spec)
{
    ToolflowConfig config;
    config.rotations = rotationPresetFor(spec.shortName);
    Program prog = spec.build();
    Toolflow(std::move(config)).lower(prog);
    return prog;
}

ToolflowResult
Toolflow::run(Program &prog) const
{
    prog.validate();

    // Metrics land in the caller's registry when one is configured, in
    // a run-local one otherwise; either way the result carries a
    // snapshot, and the run folds into the global MSQ_METRICS sink when
    // the environment asked for it.
    MetricsRegistry local;
    MetricsRegistry *reg = config_.metrics ? config_.metrics : &local;
    TraceSpan run_span(Telemetry::trace(), "toolflow-run");
    reg->counter("toolflow.runs").add(1);

    lower(prog, *reg);

    ToolflowResult result;
    auto leaf_scheduler = makeConfiguredScheduler();
    CoarseScheduler::Options coarse_options;
    coarse_options.widths = config_.coarseWidths;
    coarse_options.numThreads = config_.numThreads;
    coarse_options.metrics = reg;
    std::shared_ptr<LeafScheduleCache> cache = config_.sharedLeafCache;
    if (!cache && config_.leafCache)
        cache = std::make_shared<LeafScheduleCache>();
    coarse_options.leafCache = cache;
    const uint64_t hits_before = cache ? cache->hits() : 0;
    const uint64_t misses_before = cache ? cache->misses() : 0;
    CoarseScheduler coarse(config_.arch, *leaf_scheduler, config_.commMode,
                           coarse_options);
    {
        TraceSpan span(Telemetry::trace(), "toolflow-scheduling");
        ScopedTimerMs timer(reg->distribution("toolflow.scheduling_ms"));
        result.schedule = coarse.schedule(prog);
    }
    result.scheduledCycles = result.schedule.totalCycles;
    reg->gauge("toolflow.scheduled_cycles")
        .set(gaugeValue(result.scheduledCycles));
    if (cache) {
        result.leafCacheHits = cache->hits() - hits_before;
        result.leafCacheMisses = cache->misses() - misses_before;
    }

    {
        TraceSpan span(Telemetry::trace(), "toolflow-analysis");
        ScopedTimerMs timer(reg->distribution("toolflow.analysis_ms"));
        // Every reachable leaf's unit-weight critical path is already
        // in the bounds memoized with its widest schedule.
        ResourceEstimator resources(
            prog, nullptr, [&](const Module &, ModuleId id) {
                return result.schedule.forModule(id)
                    .result->bounds.criticalPath;
            });
        result.totalGates = resources.programGates();
        result.criticalPath = resources.programCriticalPath();
        result.qubits = resources.programQubits();
    }
    reg->gauge("toolflow.total_gates")
        .set(gaugeValue(result.totalGates.clampU64()));
    reg->gauge("toolflow.critical_path")
        .set(gaugeValue(result.criticalPath));
    reg->gauge("toolflow.qubits").set(gaugeValue(result.qubits));
    reg->gauge("toolflow.modules")
        .set(gaugeValue(prog.numModules()));

    // Empty program after flattening: no cycles, no meaningful
    // speedups; leave them 0.0 rather than dividing by zero.
    if (result.scheduledCycles > 0) {
        result.speedupVsSequential =
            result.totalGates.toDouble() /
            static_cast<double>(result.scheduledCycles);
        result.speedupVsNaive =
            (MultiSimdArch::naiveCyclesPerGate * result.totalGates)
                .toDouble() /
            static_cast<double>(result.scheduledCycles);
    }

    result.telemetry = reg->snapshot();
    if (Telemetry::metricsEnabled() && reg == &local)
        local.mergeInto(Telemetry::metrics());
    return result;
}

} // namespace msq
