/**
 * @file
 * Determinism suite for the parallel scheduling pipeline (DESIGN.md §9):
 * ProgramSchedule metrics and per-module timestep streams must be
 * bit-identical for every thread count and for memoization on vs off,
 * across RCP and LPFS, on several workloads. This is the contract that
 * makes ToolflowConfig::numThreads safe to default to the hardware
 * concurrency.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/toolflow.hh"
#include "sched/leaf_cache.hh"
#include "support/telemetry.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

#include "expect_summary.hh"
#include "schedule_printer.hh"

namespace {

using namespace msq;

const char *const kWorkloads[] = {"grovers", "tfp", "gse"};

/** Full structural equality of two program schedules. */
void
expectSameSchedule(const ProgramSchedule &a, const ProgramSchedule &b,
                   const std::string &context)
{
    ASSERT_EQ(a.modules.size(), b.modules.size()) << context;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << context;
    for (size_t i = 0; i < a.modules.size(); ++i) {
        const ModuleScheduleInfo &ma = a.modules[i];
        const ModuleScheduleInfo &mb = b.modules[i];
        SCOPED_TRACE(context + ", module " + std::to_string(i));
        ASSERT_EQ(ma.analyzed, mb.analyzed);
        if (!ma.analyzed)
            continue;
        EXPECT_EQ(ma.leaf, mb.leaf);
        ASSERT_EQ(ma.dims.size(), mb.dims.size());
        for (size_t d = 0; d < ma.dims.size(); ++d) {
            EXPECT_EQ(ma.dims[d].width, mb.dims[d].width);
            EXPECT_EQ(ma.dims[d].length, mb.dims[d].length);
        }
        ASSERT_EQ(ma.result == nullptr, mb.result == nullptr);
        if (ma.result)
            test::expectSameSummary(ma.result->summary, mb.result->summary);
    }
}

ToolflowResult
runWith(const std::string &short_name, SchedulerKind kind,
        unsigned num_threads, bool cache)
{
    auto spec =
        workloads::findWorkload(workloads::scaledParams(), short_name);
    Program prog = spec.build();
    ToolflowConfig config;
    config.scheduler = kind;
    config.arch = MultiSimdArch(4);
    config.commMode = CommMode::Global;
    config.rotations = Toolflow::rotationPresetFor(short_name);
    config.numThreads = num_threads;
    config.leafCache = cache;
    return Toolflow(config).run(prog);
}

TEST(Determinism, ThreadCountAndCacheInvariance)
{
    for (const char *workload : kWorkloads) {
        for (SchedulerKind kind :
             {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            ToolflowResult baseline = runWith(workload, kind, 1, false);
            EXPECT_EQ(baseline.leafCacheHits, 0u);
            EXPECT_EQ(baseline.leafCacheMisses, 0u);
            struct Config
            {
                unsigned threads;
                bool cache;
            };
            for (Config config : {Config{2, false}, Config{8, false},
                                  Config{1, true}, Config{8, true}}) {
                ToolflowResult other = runWith(
                    workload, kind, config.threads, config.cache);
                std::string context =
                    std::string(workload) + "/" +
                    schedulerKindName(kind) + " threads=" +
                    std::to_string(config.threads) +
                    (config.cache ? " cache" : "");
                EXPECT_EQ(baseline.scheduledCycles,
                          other.scheduledCycles)
                    << context;
                EXPECT_EQ(baseline.totalGates, other.totalGates)
                    << context;
                EXPECT_EQ(baseline.qubits, other.qubits) << context;
                expectSameSchedule(baseline.schedule, other.schedule,
                                   context);
                if (config.cache) {
                    EXPECT_GT(other.leafCacheMisses, 0u) << context;
                } else {
                    EXPECT_EQ(other.leafCacheMisses, 0u) << context;
                }
            }
        }
    }
}

/**
 * The §9 contract holds unchanged on a multi-core topology: qubit
 * mapping, link routing and inter-core teleport accounting are pure
 * deterministic functions, so a 4-core machine schedules bit-identically
 * for every thread count and for memoization on vs off.
 */
TEST(Determinism, MultiCoreTopologyInvariance)
{
    auto run = [](const char *workload, SchedulerKind kind,
                  unsigned threads, bool cache) {
        auto spec = workloads::findWorkload(workloads::scaledParams(),
                                            workload);
        Program prog = spec.build();
        ToolflowConfig config;
        config.scheduler = kind;
        std::string error;
        EXPECT_TRUE(parseTopologySpec(
            "cores=4,k=1,shape=ring,link-bw=2,link-lat=3", config.arch,
            error))
            << error;
        config.commMode = CommMode::Global;
        config.rotations = Toolflow::rotationPresetFor(workload);
        config.numThreads = threads;
        config.leafCache = cache;
        return Toolflow(config).run(prog);
    };
    for (const char *workload : {"grovers", "tfp"}) {
        for (SchedulerKind kind :
             {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            ToolflowResult baseline = run(workload, kind, 1, false);
            struct Config
            {
                unsigned threads;
                bool cache;
            };
            for (Config config : {Config{2, false}, Config{8, false},
                                  Config{1, true}, Config{2, true},
                                  Config{8, true}}) {
                ToolflowResult other = run(workload, kind,
                                           config.threads, config.cache);
                std::string context =
                    std::string("4-core ") + workload + "/" +
                    schedulerKindName(kind) + " threads=" +
                    std::to_string(config.threads) +
                    (config.cache ? " cache" : "");
                EXPECT_EQ(baseline.scheduledCycles,
                          other.scheduledCycles)
                    << context;
                expectSameSchedule(baseline.schedule, other.schedule,
                                   context);
            }
        }
    }
}

/**
 * The per-module timestep streams, not just the summary metrics: leaf
 * schedules computed under concurrent fan-out (one shared const
 * scheduler, many threads) must print identically to sequentially
 * computed ones, width by width.
 */
TEST(Determinism, LeafTimestepStreamsMatchUnderFanOut)
{
    Program prog = Toolflow::lowerWorkload(
        workloads::findWorkload(workloads::scaledParams(), "grovers"));

    std::vector<ModuleId> leaves;
    for (ModuleId id : prog.reachableModules())
        if (prog.module(id).isLeaf() && prog.module(id).numOps() > 0)
            leaves.push_back(id);
    ASSERT_FALSE(leaves.empty());

    const std::vector<unsigned> widths{1, 2, 4};
    LpfsScheduler scheduler;

    auto stream = [&](ModuleId id, unsigned w) {
        LeafSchedule sched =
            scheduler.schedule(prog.module(id), MultiSimdArch(w));
        std::ostringstream os;
        printTimeline(os, sched);
        return os.str();
    };

    std::vector<std::string> sequential(leaves.size() * widths.size());
    for (size_t i = 0; i < sequential.size(); ++i)
        sequential[i] = stream(leaves[i / widths.size()],
                               widths[i % widths.size()]);

    std::vector<std::string> parallel(sequential.size());
    ThreadPool pool(4);
    pool.parallelFor(parallel.size(), [&](uint64_t i) {
        parallel[i] = stream(leaves[i / widths.size()],
                             widths[i % widths.size()]);
    });

    for (size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential[i], parallel[i])
            << "leaf " << leaves[i / widths.size()] << " width "
            << widths[i % widths.size()];
    }
}

/** True for wall-clock distributions, which legitimately vary. */
bool
isTimingMetric(const std::string &name)
{
    return name.size() >= 3 &&
           name.compare(name.size() - 3, 3, "_ms") == 0;
}

/**
 * Two telemetry snapshots must carry the same metric set, and every
 * non-wall-clock value must match exactly.
 */
void
expectSameTelemetry(const MetricsSnapshot &a, const MetricsSnapshot &b,
                    const std::string &context)
{
    ASSERT_EQ(a.entries.size(), b.entries.size()) << context;
    for (size_t i = 0; i < a.entries.size(); ++i) {
        const MetricEntry &ea = a.entries[i];
        const MetricEntry &eb = b.entries[i];
        SCOPED_TRACE(context + ", metric " + ea.name);
        ASSERT_EQ(ea.name, eb.name);
        ASSERT_EQ(ea.kind, eb.kind);
        if (isTimingMetric(ea.name))
            continue;
        switch (ea.kind) {
          case MetricEntry::Kind::Counter:
            EXPECT_EQ(ea.counterValue, eb.counterValue);
            break;
          case MetricEntry::Kind::Gauge:
            EXPECT_EQ(ea.gaugeValue, eb.gaugeValue);
            break;
          case MetricEntry::Kind::Distribution:
            EXPECT_EQ(ea.dist.count, eb.dist.count);
            EXPECT_EQ(ea.dist.sum, eb.dist.sum);
            EXPECT_EQ(ea.dist.min, eb.dist.min);
            EXPECT_EQ(ea.dist.max, eb.dist.max);
            EXPECT_EQ(ea.dist.p50, eb.dist.p50);
            EXPECT_EQ(ea.dist.p99, eb.dist.p99);
            break;
        }
    }
}

/**
 * The DESIGN.md §9 contract extends to telemetry (§10): with tracing on
 * and metrics recording, every counter, gauge and non-"_ms"
 * distribution — gate counts, cache traffic, teleport totals — is
 * bit-identical across thread counts; only wall-clock fields differ.
 */
TEST(Determinism, TelemetryThreadCountInvariance)
{
    Telemetry::trace().setEnabled(true);
    for (const char *workload : kWorkloads) {
        ToolflowResult baseline =
            runWith(workload, SchedulerKind::Lpfs, 1, true);
        EXPECT_GT(baseline.telemetry.counter("sched.leaf.instances"), 0u)
            << workload;
        EXPECT_EQ(baseline.telemetry.counter("sched.leaf_cache.misses"),
                  baseline.leafCacheMisses)
            << workload;
        EXPECT_EQ(baseline.telemetry.counter("sched.leaf_cache.hits"),
                  baseline.leafCacheHits)
            << workload;
        for (unsigned threads : {2u, 8u}) {
            ToolflowResult other =
                runWith(workload, SchedulerKind::Lpfs, threads, true);
            std::string context = std::string(workload) + " threads=" +
                                  std::to_string(threads);
            expectSameSchedule(baseline.schedule, other.schedule,
                               context);
            expectSameTelemetry(baseline.telemetry, other.telemetry,
                                context);
        }
    }
    Telemetry::trace().setEnabled(false);
    Telemetry::trace().flush();
}

/**
 * The width-collapse counter sched.leaf.derived_widths counts the
 * (leaf x width) slots that take a narrower width's result — a pure
 * function of program, arch and sweep, so identical for every thread
 * count and cache state. Shor's 128 one-qubit rotation leaves derive
 * every width past 1 (2 of 3 at k=4, 3 of 4 at k=8), leaving one width
 * task per leaf; every other scaled leaf is wider than the sweep.
 */
TEST(Determinism, DerivedWidthsCounterInvariance)
{
    auto run = [](const std::string &workload, unsigned k,
                  unsigned threads, bool cache) {
        auto spec =
            workloads::findWorkload(workloads::scaledParams(), workload);
        Program prog = spec.build();
        ToolflowConfig config;
        config.scheduler = SchedulerKind::Lpfs;
        config.arch = MultiSimdArch(k);
        config.commMode = CommMode::Global;
        config.rotations = Toolflow::rotationPresetFor(workload);
        config.numThreads = threads;
        config.leafCache = cache;
        return Toolflow(config).run(prog);
    };
    for (const auto &spec : workloads::scaledParams()) {
        const bool shors = spec.shortName == "shors";
        for (unsigned k : {4u, 8u}) {
            const std::string context =
                spec.shortName + " k=" + std::to_string(k);
            const ToolflowResult baseline = run(spec.shortName, k, 1, false);
            const MetricsSnapshot &snap = baseline.telemetry;
            const uint64_t derived =
                snap.counter("sched.leaf.derived_widths");
            EXPECT_EQ(derived, shors ? (k == 4 ? 256u : 384u) : 0u)
                << context;
            // Default sweeps: {1, 2, 4} and {1, 2, 4, 8}.
            const uint64_t slots =
                snap.counter("sched.leaf.instances") * (k == 4 ? 3 : 4);
            EXPECT_EQ(snap.counter("sched.width_sweep_points"),
                      k == 4 ? 3u : 4u)
                << context;
            if (shors)
                EXPECT_EQ(slots - derived, 128u) << context;
            if (!shors && spec.shortName != "grovers")
                continue;
            for (unsigned threads : {1u, 2u, 8u}) {
                for (bool cache : {false, true}) {
                    if (threads == 1 && !cache)
                        continue;
                    const ToolflowResult other =
                        run(spec.shortName, k, threads, cache);
                    const std::string where =
                        context + " threads=" + std::to_string(threads) +
                        (cache ? " cache" : "");
                    EXPECT_EQ(other.telemetry.counter(
                                  "sched.leaf.derived_widths"),
                              derived)
                        << where;
                    expectSameSchedule(baseline.schedule, other.schedule,
                                       where);
                }
            }
        }
    }
}

/**
 * The work counter sched.leaf.ready_scanned sums the ready-list entries
 * the leaf schedulers examined over every width task. Each task's count
 * rides its memoized result and a derived width adds nothing, so the
 * sum is identical for every thread count and cache state. Shor's
 * covers the width collapse, SHA-1 the longest ready lists.
 */
TEST(Determinism, ReadyScannedCounterInvariance)
{
    for (const char *workload : {"grovers", "sha1", "shors"}) {
        for (SchedulerKind kind :
             {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            const std::string context =
                std::string(workload) + "/" + schedulerKindName(kind);
            const uint64_t scanned =
                runWith(workload, kind, 1, false)
                    .telemetry.counter("sched.leaf.ready_scanned");
            EXPECT_GT(scanned, 0u) << context;
            for (unsigned threads : {1u, 2u, 8u}) {
                for (bool cache : {false, true}) {
                    if (threads == 1 && !cache)
                        continue;
                    EXPECT_EQ(runWith(workload, kind, threads, cache)
                                  .telemetry.counter(
                                      "sched.leaf.ready_scanned"),
                              scanned)
                        << context << " threads=" << threads
                        << (cache ? " cache" : "");
                }
            }
        }
    }
}

/**
 * The work counter sched.leaf.ops_hashed counts the ops folded into
 * leaf-cache keys: every leaf's ops once per compile with a cache, none
 * without. It is recorded in the single-threaded merge, so it is
 * identical for every thread count.
 */
TEST(Determinism, OpsHashedCounterInvariance)
{
    for (const char *workload : {"grovers", "sha1", "shors"}) {
        const uint64_t hashed =
            runWith(workload, SchedulerKind::Lpfs, 1, true)
                .telemetry.counter("sched.leaf.ops_hashed");
        EXPECT_GT(hashed, 0u) << workload;
        for (unsigned threads : {1u, 2u, 8u}) {
            EXPECT_EQ(runWith(workload, SchedulerKind::Lpfs, threads, true)
                          .telemetry.counter("sched.leaf.ops_hashed"),
                      hashed)
                << workload << " threads=" << threads;
            EXPECT_EQ(runWith(workload, SchedulerKind::Lpfs, threads, false)
                          .telemetry.counter("sched.leaf.ops_hashed"),
                      0u)
                << workload << " threads=" << threads << " no cache";
        }
    }
}

/**
 * A shared cache reused across runs must keep returning the first
 * run's results (and actually hit).
 */
TEST(Determinism, SharedCacheAcrossRuns)
{
    auto cache = std::make_shared<LeafScheduleCache>();
    auto run = [&](unsigned threads) {
        auto spec =
            workloads::findWorkload(workloads::scaledParams(), "tfp");
        Program prog = spec.build();
        ToolflowConfig config;
        config.scheduler = SchedulerKind::Lpfs;
        config.arch = MultiSimdArch(4);
        config.commMode = CommMode::Global;
        config.numThreads = threads;
        config.sharedLeafCache = cache;
        return Toolflow(config).run(prog);
    };
    ToolflowResult first = run(1);
    ToolflowResult second = run(8);
    EXPECT_EQ(first.scheduledCycles, second.scheduledCycles);
    expectSameSchedule(first.schedule, second.schedule, "shared cache");
    // The second run re-schedules an identical program: every leaf
    // lookup must hit.
    EXPECT_GT(second.leafCacheHits, 0u);
    EXPECT_EQ(second.leafCacheMisses, 0u);
}

} // anonymous namespace
