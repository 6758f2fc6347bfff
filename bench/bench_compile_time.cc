/**
 * @file
 * Compile-time (scheduler wall-clock) baseline: times the hierarchical
 * scheduling pipeline — the dominant cost on large programs (paper
 * §3.1's motivation for scheduling hierarchically at all) — in three
 * configurations per workload and scheduler:
 *
 *   sequential       numThreads = 1, no memoization (the legacy path)
 *   parallel         numThreads = T, no memoization
 *   parallel+cold    numThreads = T, fresh leaf-schedule cache
 *   parallel+warm    numThreads = T, cache pre-populated by one
 *                    untimed pass — the repeated-scheduling case
 *                    (sweeps, recompiles) the shared cache exists for
 *
 * and writes a machine-readable BENCH_compile_time.json so later
 * changes can be measured against this trajectory. Each row also
 * carries the deterministic work counter sched.leaf.ready_scanned: the
 * ready-list entries the leaf schedulers examined in one schedule()
 * call (DESIGN.md §10). CI gates it exactly; wall_ms is informational.
 * The schedules and the counter are identical across configurations
 * (DESIGN.md §9); this bench cross-checks total cycles and the counter
 * and fails on a mismatch.
 *
 * A second table, schedule_bytes, sizes the SoA ScheduleBuffer: per
 * workload x scheduler x k in {4, 32, 128}, every leaf is scheduled and
 * movement-annotated once, and soa_bytes_per_step is the summed
 * ScheduleBuffer::byteSize() over the summed compute steps (CI gates it
 * at 10% growth).
 *
 * Environment knobs (each a count >= 1; any other value exits 2):
 *   MSQ_BENCH_THREADS  parallel fan-out T (default 8)
 *   MSQ_BENCH_REPS     timing repetitions, fastest kept (default 1)
 *
 * Usage: bench_compile_time [output.json]   (default
 * BENCH_compile_time.json in the working directory)
 */

#include "common.hh"

#include <chrono>
#include <memory>
#include <vector>

#include "sched/comm.hh"
#include "sched/leaf_cache.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

using namespace msq;

namespace {

struct Row
{
    std::string workload;
    std::string scheduler;
    std::string config; ///< sequential | parallel | cold-cache | warm-cache
    unsigned threads;
    bool cache;
    double cacheHitRate;
    double wallMs;
    double speedup; ///< vs the sequential config, same workload+scheduler
    uint64_t totalCycles;
    uint64_t readyScanned; ///< sched.leaf.ready_scanned of one call
    uint64_t leafModules;
};

/** Schedule-buffer bytes of one workload x scheduler x k. */
struct BytesRow
{
    std::string workload;
    std::string scheduler;
    unsigned k;
    uint64_t leaves = 0;
    uint64_t timesteps = 0;
    uint64_t soaBytes = 0;
};

/** Schedule and annotate every non-empty leaf of @p prog at width k. */
void
measureScheduleBytes(const Program &prog, const LeafScheduler &scheduler,
                     BytesRow &row)
{
    const MultiSimdArch arch(row.k);
    CommunicationAnalyzer comm(arch, CommMode::Global);
    for (ModuleId id : prog.reachableModules()) {
        const Module &mod = prog.module(id);
        if (!mod.isLeaf() || mod.numOps() == 0)
            continue;
        LeafSchedule sched = scheduler.schedule(mod, arch);
        ResourceSummary summary;
        comm.annotate(sched, summary);
        ++row.leaves;
        row.timesteps += sched.computeTimesteps();
        row.soaBytes += sched.buffer().byteSize();
    }
}

/** What one configuration's schedule() calls produced. */
struct Outcome
{
    uint64_t totalCycles = 0;
    uint64_t readyScanned = 0; ///< of the last call
};

/**
 * Wall-clock one schedule() call; fastest of @p reps. @p coarse records
 * its metrics into @p metrics. Every repetition also lands in the
 * global telemetry registry as "<label>_ms" (and, when tracing is on, a
 * "bench:<label>" span), so MSQ_METRICS / MSQ_TRACE capture the full
 * phase breakdown alongside the JSON report.
 */
double
timeSchedule(const CoarseScheduler &coarse, MetricsRegistry &metrics,
             const Program &prog, unsigned reps, Outcome &outcome,
             const std::string &label)
{
    Distribution &dist =
        Telemetry::metrics().distribution(label + "_ms");
    Counter &scanned = metrics.counter("sched.leaf.ready_scanned");
    double best_ms = 0.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        TraceSpan span(Telemetry::trace(), "bench:" + label);
        const uint64_t scanned_before = scanned.value();
        WallTimer timer;
        ProgramSchedule sched = coarse.schedule(prog);
        double ms = timer.elapsedMs();
        outcome.totalCycles = sched.totalCycles;
        outcome.readyScanned = scanned.value() - scanned_before;
        dist.record(ms);
        if (rep == 0 || ms < best_ms)
            best_ms = ms;
    }
    return best_ms;
}

void
writeJson(JsonWriter &json, const std::vector<Row> &rows,
          const std::vector<BytesRow> &bytes_rows,
          unsigned parallel_threads, unsigned reps)
{
    json.beginObject().member(
        "bench", "bench_compile_time", "parallel_threads", parallel_threads,
        "hardware_threads", ThreadPool::hardwareThreads(), "reps", reps);
    json.key("rows").beginArray();
    for (const Row &row : rows) {
        json.beginObject().member(
            "workload", row.workload, "scheduler", row.scheduler,
            "config", row.config, "threads", row.threads,
            "cache", row.cache, "cache_hit_rate", row.cacheHitRate,
            "wall_ms", row.wallMs, "speedup_vs_sequential", row.speedup,
            "total_cycles", row.totalCycles,
            "ready_scanned", row.readyScanned,
            "leaf_modules", row.leafModules);
        json.endObject();
    }
    json.endArray().key("schedule_bytes").beginArray();
    for (const BytesRow &row : bytes_rows) {
        json.beginObject().member(
            "workload", row.workload, "scheduler", row.scheduler,
            "k", row.k, "leaves", row.leaves, "timesteps", row.timesteps,
            "soa_bytes", row.soaBytes, "soa_bytes_per_step",
            static_cast<double>(row.soaBytes) /
                static_cast<double>(row.timesteps));
        json.endObject();
    }
    json.endArray().endObject();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const unsigned threads = bench::envCount("MSQ_BENCH_THREADS", 8);
    const unsigned reps = bench::envCount("MSQ_BENCH_REPS", 1);
    bench::banner("bench_compile_time",
                  "compiler wall-clock baseline - sequential vs "
                  "parallel vs parallel+memoized scheduling");
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_compile_time.json";

    ResultTable table("scheduling wall-clock (ms, fastest of reps)");
    table.setHeader({"benchmark", "scheduler", "sequential", "parallel",
                     "cold cache", "warm cache", "par speedup",
                     "warm speedup", "warm hit rate"});

    std::vector<Row> rows;
    std::vector<BytesRow> bytes_rows;
    bool mismatch = false;

    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);
        uint64_t leaf_modules = 0;
        for (ModuleId id : prog.reachableModules())
            if (prog.module(id).isLeaf())
                ++leaf_modules;

        for (SchedulerKind kind :
             {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            auto scheduler = Toolflow::makeScheduler(kind);
            MultiSimdArch arch(4);

            // Each configuration's work counter lands here.
            MetricsRegistry metrics;
            auto make_coarse = [&](unsigned n_threads,
                                   std::shared_ptr<LeafScheduleCache>
                                       cache) {
                CoarseScheduler::Options options;
                options.numThreads = n_threads;
                options.leafCache = std::move(cache);
                options.metrics = &metrics;
                return CoarseScheduler(arch, *scheduler,
                                       CommMode::Global, options);
            };

            const std::string label_prefix =
                "bench.compile." + spec.shortName + "." +
                schedulerKindName(kind);

            Outcome seq, par, cold, warm;
            double seq_ms = timeSchedule(make_coarse(1, nullptr), metrics,
                                         prog, reps, seq,
                                         label_prefix + ".sequential");
            double par_ms = timeSchedule(make_coarse(threads, nullptr),
                                         metrics, prog, reps, par,
                                         label_prefix + ".parallel");
            // Cold: fresh cache per timed run so the hit rate reflects
            // one first-compile schedule() pass, not the repetitions.
            double cold_ms = 0.0;
            double cold_hit_rate = 0.0;
            for (unsigned rep = 0; rep < reps; ++rep) {
                auto cache = std::make_shared<LeafScheduleCache>();
                double ms = timeSchedule(make_coarse(threads, cache),
                                         metrics, prog, 1, cold,
                                         label_prefix + ".cold_cache");
                cold_hit_rate = cache->hitRate();
                if (rep == 0 || ms < cold_ms)
                    cold_ms = ms;
            }
            // Warm: one untimed pass populates the cache, then the
            // timed passes reuse it — the repeated-scheduling pattern
            // (parameter sweeps, recompiles) sharedLeafCache serves.
            auto warm_cache = std::make_shared<LeafScheduleCache>();
            {
                Outcome ignored;
                timeSchedule(make_coarse(threads, warm_cache), metrics,
                             prog, 1, ignored,
                             label_prefix + ".warm_prefill");
            }
            const uint64_t warm_hits_before = warm_cache->hits();
            const uint64_t warm_misses_before = warm_cache->misses();
            double warm_ms = timeSchedule(make_coarse(threads,
                                                      warm_cache),
                                          metrics, prog, reps, warm,
                                          label_prefix + ".warm_cache");
            const double warm_lookups =
                static_cast<double>(warm_cache->hits() -
                                    warm_hits_before) +
                static_cast<double>(warm_cache->misses() -
                                    warm_misses_before);
            const double warm_hit_rate =
                warm_lookups > 0.0
                    ? static_cast<double>(warm_cache->hits() -
                                          warm_hits_before) /
                          warm_lookups
                    : 0.0;

            for (const Outcome *other : {&par, &cold, &warm}) {
                if (other->totalCycles != seq.totalCycles ||
                    other->readyScanned != seq.readyScanned) {
                    std::cerr << "DETERMINISM VIOLATION: "
                              << spec.shortName << "/"
                              << schedulerKindName(kind)
                              << " schedules or work counters differ "
                                 "across configs\n";
                    mismatch = true;
                }
            }

            auto speedup = [](double base, double ms) {
                return ms > 0.0 ? base / ms : 0.0;
            };
            rows.push_back({spec.shortName, schedulerKindName(kind),
                            "sequential", 1, false, 0.0, seq_ms, 1.0,
                            seq.totalCycles, seq.readyScanned,
                            leaf_modules});
            rows.push_back({spec.shortName, schedulerKindName(kind),
                            "parallel", threads, false, 0.0, par_ms,
                            speedup(seq_ms, par_ms), par.totalCycles,
                            par.readyScanned, leaf_modules});
            rows.push_back({spec.shortName, schedulerKindName(kind),
                            "cold-cache", threads, true, cold_hit_rate,
                            cold_ms, speedup(seq_ms, cold_ms),
                            cold.totalCycles, cold.readyScanned,
                            leaf_modules});
            rows.push_back({spec.shortName, schedulerKindName(kind),
                            "warm-cache", threads, true, warm_hit_rate,
                            warm_ms, speedup(seq_ms, warm_ms),
                            warm.totalCycles, warm.readyScanned,
                            leaf_modules});

            table.beginRow();
            table.addCell(spec.name);
            table.addCell(std::string(schedulerKindName(kind)));
            table.addCell(seq_ms, 2);
            table.addCell(par_ms, 2);
            table.addCell(cold_ms, 2);
            table.addCell(warm_ms, 2);
            table.addCell(speedup(seq_ms, par_ms), 2);
            table.addCell(speedup(seq_ms, warm_ms), 2);
            table.addCell(warm_hit_rate, 3);

            for (unsigned k : {4u, 32u, 128u}) {
                BytesRow row{spec.shortName, schedulerKindName(kind), k};
                measureScheduleBytes(prog, *scheduler, row);
                if (row.timesteps > 0)
                    bytes_rows.push_back(std::move(row));
            }
        }
    }

    table.printAscii(std::cout);
    std::cout << "\nparallel fan-out: " << threads << " thread(s) on "
              << ThreadPool::hardwareThreads()
              << " hardware thread(s); schedules and work counters "
                 "verified identical across all configurations.\n";

    if (!bench::writeReport(out_path, [&](JsonWriter &json) {
            writeJson(json, rows, bytes_rows, threads, reps);
        }))
        return 1;
    return mismatch ? 1 : 0;
}
