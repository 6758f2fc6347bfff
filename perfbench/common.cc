#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "analysis/bounds.hh"
#include "analysis/critical_path.hh"
#include "analysis/qubit_estimator.hh"
#include "analysis/qubit_mapping.hh"
#include "analysis/resource_estimator.hh"
#include "analysis/schedule_summary.hh"
#include "arch/topology.hh"
#include "ir/dag.hh"
#include "passes/decompose_toffoli.hh"
#include "passes/flatten.hh"
#include "passes/rotation_decomposer.hh"
#include "sched/comm.hh"
#include "sched/core_affinity.hh"
#include "sched/validator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"

using namespace msq;

namespace perfbench {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

unsigned
roundsFor(unsigned seconds, double rounds_per_second)
{
    return std::max(1u, static_cast<unsigned>(
                            std::lround(seconds * rounds_per_second)));
}

namespace {

/** Linear-interpolated percentile @p p (0-100) of sorted @p values. */
double
percentileSorted(const std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

/**
 * Harrell-Davis estimate of quantile @p q (0-1) of sorted @p values: the
 * mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
 * density, which uses every sample near the quantile rather than the
 * one or two the plain estimate reads, so it moves far less from run to
 * run on small or multi-modal samples.
 */
double
hdQuantileSorted(const std::vector<double> &values, double q)
{
    const size_t n = values.size();
    if (n < 2)
        return n == 1 ? values[0] : 0.0;
    const double a = q * static_cast<double>(n + 1);
    const double b = (1.0 - q) * static_cast<double>(n + 1);
    const double mode = std::clamp((a - 1.0) / (a + b - 2.0), 1e-9, 1 - 1e-9);
    auto log_density = [&](double x) {
        return (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x);
    };
    const double peak = log_density(mode);
    // Midpoint rule, 64 steps per order statistic's interval.
    constexpr int steps = 64;
    const double h = 1.0 / static_cast<double>(n * steps);
    double total = 0.0;
    double estimate = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double mass = 0.0;
        for (int s = 0; s < steps; ++s) {
            const double x = (static_cast<double>(i * steps + s) + 0.5) * h;
            mass += std::exp(log_density(x) - peak);
        }
        total += mass;
        estimate += mass * values[i];
    }
    return estimate / total;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logs = 0.0;
    for (double v : values)
        logs += std::log(v);
    return std::exp(logs / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    // KiB -> MiB, less the calibration buffer main() makes resident
    // before any workload allocation.
    return static_cast<double>(usage.ru_maxrss) / 1024.0 -
           calibrationBufferMb();
}

std::string
metricJson(const std::string &name, double value, const char *unit)
{
    return csprintf("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    name.c_str(), jsonNumber(value).c_str(), unit);
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<std::string> &metrics)
{
    std::string line = csprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        line += (i ? ", " : "") + metrics[i];
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // anonymous namespace

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, 50.0);
}

std::string
hashText(const ProgramSchedule &sched)
{
    return csprintf("%016llx", static_cast<unsigned long long>(
                                   hashProgramSchedule(sched)));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

namespace {

/** Entries of the calibration kernel's shared-cache buffer. */
constexpr size_t calibrationWords = size_t{8} << 20; // 64 MiB

const std::vector<uint64_t> &
calibrationBuffer()
{
    static const std::vector<uint64_t> buffer(calibrationWords, 1);
    return buffer;
}

} // anonymous namespace

double
calibrationBufferMb()
{
    return static_cast<double>(calibrationWords * sizeof(uint64_t)) /
           (1024.0 * 1024.0);
}

double
calibrationMs()
{
    const std::vector<uint64_t> &buffer = calibrationBuffer();
    const double start = nowMs();
    SplitMix64 rng(42);

    // Phase 1 (cache-resident): list-schedule a seeded random DAG
    // through a priority queue and a hash map.
    const uint32_t n = 40000;
    std::vector<std::vector<uint32_t>> succs(n);
    std::vector<uint32_t> indeg(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
        for (int e = 0; e < 3; ++e) {
            const uint64_t j = i + 1 + rng.nextBelow(256);
            if (j < n) {
                succs[i].push_back(static_cast<uint32_t>(j));
                ++indeg[j];
            }
        }
    }
    std::vector<uint64_t> prio(n);
    for (auto &p : prio)
        p = rng.next();
    auto cmp = [&](uint32_t a, uint32_t b) { return prio[a] < prio[b]; };
    std::priority_queue<uint32_t, std::vector<uint32_t>, decltype(cmp)>
        ready(cmp);
    for (uint32_t i = 0; i < n; ++i)
        if (indeg[i] == 0)
            ready.push(i);
    std::unordered_map<uint64_t, uint32_t> placed;
    uint64_t step = 0;
    while (!ready.empty()) {
        const uint32_t v = ready.top();
        ready.pop();
        placed[prio[v] ^ step++] = v;
        for (uint32_t s : succs[v])
            if (--indeg[s] == 0)
                ready.push(s);
    }

    // Phase 2 (shared cache): random reads over a buffer far larger
    // than a core's private caches, the traffic of a large leaf compile.
    uint64_t acc = placed.size();
    for (int i = 0; i < 700000; ++i)
        acc += buffer[rng.next() & (calibrationWords - 1)];
    volatile uint64_t sink = acc;
    (void)sink;
    return nowMs() - start;
}

// --- Checker ---------------------------------------------------------------

bool
Checker::matchExpected(const std::string &what, uint64_t makespan,
                       const std::string &hash, Expected &expected)
{
    if (!expected.known) {
        expected.known = true;
        expected.makespan = makespan;
        expected.hash = hash;
        return true;
    }
    bool ok = expect(makespan == expected.makespan,
                     csprintf("%s: makespan %llu, expected %llu",
                              what.c_str(),
                              static_cast<unsigned long long>(makespan),
                              static_cast<unsigned long long>(
                                  expected.makespan)));
    ok &= expect(hash == expected.hash,
                 what + ": schedule hash " + hash + ", expected " +
                     expected.hash);
    return ok;
}

bool
Checker::expect(bool ok, const std::string &what)
{
    if (!ok) {
        if (failures_ < 20)
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        ++failures_;
    }
    return ok;
}

bool
Checker::checkCompile(const std::string &what, const Program &lowered,
                      const ToolflowConfig &config,
                      const ProgramSchedule &sched, Expected &expected)
{
    DiagnosticEngine diags(DiagnosticEngine::FailMode::Collect);
    bool ok = expect(validateProgramSchedule(lowered, sched, config.arch,
                                             &diags) &&
                         diags.numErrors() == 0,
                     what + ": schedule does not validate");
    if (!expected.haveBound) {
        MakespanBoundAnalysis bounds(lowered, config.arch, config.commMode);
        expected.lowerBound = bounds.programLowerBound();
        expected.haveBound = true;
        if (expected.haveDaemonBound) {
            ok &= expect(expected.daemonBound == expected.lowerBound,
                         what + ": daemon lower bound differs");
        }
    }
    ok &= expect(sched.totalCycles >= expected.lowerBound,
                 what + ": makespan below the certified lower bound");
    ok &= matchExpected(what, sched.totalCycles, hashText(sched), expected);
    return ok;
}

bool
Checker::checkResponse(const std::string &what, const std::string &response,
                       Expected &expected, bool all_hits)
{
    std::string error;
    std::unique_ptr<JsonValue> parsed = parseJson(response, error);
    if (!expect(parsed && parsed->get("ok").asBool(false),
                what + ": daemon request failed: " + response.substr(0, 200)))
        return false;
    const JsonValue &r = *parsed;
    const uint64_t makespan = r.get("makespan").asUnsigned();
    const uint64_t bound = r.get("lower_bound").asUnsigned();
    const std::string hash = r.get("schedule_hash").asString();
    bool ok = expect(makespan >= bound,
                     what + ": makespan below the daemon's lower bound");
    if (all_hits) {
        ok &= expect(r.get("telemetry").get("leaf_cache_misses")
                             .asUnsigned(1) == 0,
                     what + ": request missed the warm cache");
    }
    if (expected.haveBound) {
        ok &= expect(bound == expected.lowerBound,
                     what + ": daemon lower bound differs");
    } else {
        expected.haveDaemonBound = true;
        expected.daemonBound = bound;
    }
    ok &= matchExpected(what, makespan, hash, expected);
    return ok;
}

// --- Report ----------------------------------------------------------------

void
Report::input(const std::string &cls, const std::string &label,
              uint64_t makespan)
{
    manifest_.push_back(csprintf("input %s %s makespan=%llu", cls.c_str(),
                                 label.c_str(),
                                 static_cast<unsigned long long>(makespan)));
    makespans_.push_back(static_cast<double>(makespan));
    classMakespans_[cls].push_back(static_cast<double>(makespan));
}

void
Report::setup(double seconds)
{
    setups_.push_back(seconds * referenceCalibrationMs / calibrationMs());
}

void
Report::request(const std::string &cls, double ms, bool ok)
{
    latencies_.push_back(ms);
    classes_.push_back(cls);
    nextCalibration_.push_back(calibrations_.size());
    if (!ok)
        ++failed_;
    sinceCalibrationMs_ += ms;
    if (sinceCalibrationMs_ >= 250.0) {
        sinceCalibrationMs_ = 0;
        calibrations_.push_back(calibrationMs());
    }
}

namespace {

/** Median of the (up to) three samples centred on @p center. */
double
medianAround(const std::vector<double> &samples, size_t center)
{
    const size_t lo = center > 0 ? center - 1 : 0;
    const size_t hi = std::min(center + 2, samples.size());
    return median(std::vector<double>(samples.begin() + lo,
                                      samples.begin() + hi));
}

struct Summary
{
    double p50 = 0;
    double tail = 0;
    double throughput = 0;
};

Summary
summarize(std::vector<double> ms, double tail_p)
{
    std::sort(ms.begin(), ms.end());
    double busy = 0.0;
    for (double v : ms)
        busy += v;
    return {hdQuantileSorted(ms, 0.5), hdQuantileSorted(ms, tail_p / 100.0),
            busy > 0 ? static_cast<double>(ms.size()) / (busy / 1000.0)
                     : 0.0};
}

} // anonymous namespace

void
Report::print(const std::string &workload, const Checker &checker) const
{
    std::vector<double> calibrations = calibrations_;
    if (nextCalibration_.empty() ||
        calibrations.size() <= nextCalibration_.back())
        calibrations.push_back(calibrationMs());
    std::vector<double> scaled(latencies_.size());
    std::map<std::string, std::vector<double>> by_class;
    for (size_t i = 0; i < latencies_.size(); ++i) {
        scaled[i] = latencies_[i] * referenceCalibrationMs /
                    medianAround(calibrations, nextCalibration_[i]);
        by_class[classes_[i]].push_back(scaled[i]);
    }

    for (const std::string &line : manifest_)
        std::printf("%s\n", line.c_str());
    for (const auto &[cls, samples] : by_class) {
        auto found = classMakespans_.find(cls);
        std::printf("row %s %s count=%zu p50_ms=%.3f makespan=%.0f\n",
                    workload.c_str(), cls.c_str(), samples.size(),
                    median(samples),
                    found == classMakespans_.end() ? 0.0
                                                   : geomean(found->second));
    }

    const double n = static_cast<double>(latencies_.size());
    // The highest percentile of a fixed ladder that still has at least
    // ten samples beyond it.
    double tail_p = 50.0;
    for (double p : {75.0, 90.0, 95.0, 99.0, 99.9})
        if (n * (1.0 - p / 100.0) >= 10.0)
            tail_p = p;
    const Summary raw = summarize(latencies_, tail_p);
    const Summary at_ref = summarize(scaled, tail_p);
    const double makespan = geomean(makespans_);
    const double rss = peakRssMb();
    const double setup = median(setups_);
    const double fail_frac = static_cast<double>(failed_) / n;

    std::printf("latency_tail_ms is p%g of %zu timed requests (%.0f "
                "beyond it)\n",
                tail_p, latencies_.size(), n * (1.0 - tail_p / 100.0));
    std::printf("setup_s is the median of %zu set-up repetitions\n",
                setups_.size());
    std::printf("calibration kernel: %zu samples, median %.4f ms "
                "(reference %.1f ms)\n",
                calibrations.size(), median(calibrations),
                referenceCalibrationMs);
    std::printf("raw latency_p50_ms %.4f latency_tail_ms %.4f "
                "throughput_per_s %.4f\n",
                raw.p50, raw.tail, raw.throughput);
    std::printf("metric latency_p50_ms %.4f ms\n", at_ref.p50);
    std::printf("metric latency_tail_ms %.4f ms\n", at_ref.tail);
    std::printf("metric throughput_per_s %.4f 1/s\n", at_ref.throughput);
    std::printf("metric makespan_geomean_cycles %.1f cycles over %zu "
                "inputs\n",
                makespan, makespans_.size());
    std::printf("metric peak_rss_mb %.2f MB\n", rss);
    std::printf("metric setup_s %.5f s\n", setup);
    std::printf("metric fail_frac %.4f ratio (%llu of %zu)\n", fail_frac,
                static_cast<unsigned long long>(failed_), latencies_.size());

    printResult(checker.failures() == 0 && failed_ == 0 &&
                    !latencies_.empty(),
                latencies_.size(), failed_,
                {metricJson("latency_p50_ms", at_ref.p50, "ms"),
                 metricJson("latency_tail_ms", at_ref.tail, "ms"),
                 metricJson("throughput_per_s", at_ref.throughput, "1/s"),
                 metricJson("makespan_geomean_cycles", makespan, "cycles"),
                 metricJson("peak_rss_mb", rss, "MB"),
                 metricJson("setup_s", setup, "s")});
}

// --- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer &tracer, const std::string &name)
    : tracer(tracer), index(static_cast<int>(tracer.spans_.size()))
{
    tracer.spans_.push_back(
        {name, nowMs(), 0.0, tracer.current_, tracer.request_});
    tracer.current_ = index;
}

Tracer::Scope::~Scope()
{
    tracer.spans_[index].end = nowMs();
    tracer.current_ = tracer.spans_[index].parent;
}

double
Tracer::counter(const std::string &name) const
{
    auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
}

double
Tracer::totalMs(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += span.end - span.start;
    return total;
}

double
Tracer::selfMs(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_) {
        if (span.name == name)
            total += span.end - span.start;
        else if (span.parent >= 0 && spans_[span.parent].name == name)
            total -= span.end - span.start;
    }
    return total;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &span : spans_) {
        out << csprintf("{\"name\": \"%s\", \"start_ms\": %.4f, "
                        "\"end_ms\": %.4f, \"parent\": %d, "
                        "\"request\": %llu}\n",
                        span.name.c_str(), span.start, span.end,
                        span.parent,
                        static_cast<unsigned long long>(span.request));
    }
}

// --- Replica ---------------------------------------------------------------

ProgramSchedule
replicaCompile(Program &prog, const ToolflowConfig &config,
               std::shared_ptr<LeafScheduleCache> cache, Tracer &tracer,
               std::vector<ProbeTask> &probes)
{
    using Scope = Tracer::Scope;
    prog.validate();
    {
        Scope span(tracer, "passes.decompose_toffoli");
        DecomposeToffoliPass().run(prog);
    }
    {
        Scope span(tracer, "passes.rotation_decomposer");
        RotationDecomposerPass(config.rotations).run(prog);
    }
    {
        Scope span(tracer, "passes.flatten");
        FlattenPass(config.flattenThreshold).run(prog);
    }
    {
        Scope span(tracer, "ir.validate");
        prog.validate();
    }
    uint64_t ops = 0;
    for (ModuleId id : prog.reachableModules())
        ops += prog.module(id).numOps();
    tracer.count("passes.ops_after", static_cast<double>(ops));
    {
        Scope span(tracer, "analysis.estimators");
        ResourceEstimator(prog).programGates();
        CriticalPathAnalysis(prog).programCriticalPath();
        QubitEstimator(prog).programQubits();
    }

    const std::unique_ptr<LeafScheduler> scheduler =
        Toolflow(config).makeConfiguredScheduler();
    // Without a cache the leaf results still have to reach the coarse
    // stage; they go through a private cache that run() does not have,
    // so its key and insert are timed as plumbing, not as cache work.
    std::shared_ptr<LeafScheduleCache> results =
        cache ? cache : std::make_shared<LeafScheduleCache>();
    CoarseScheduler::Options options;
    options.widths = config.coarseWidths;
    options.numThreads = config.numThreads;
    options.leafCache = results;
    CoarseScheduler coarse(config.arch, *scheduler, config.commMode, options);
    const std::string suffix = leafScheduleKeySuffix(
        scheduler->fingerprint(), config.arch, config.commMode);
    const std::string sched_span = std::string("sched.") + scheduler->name();

    for (ModuleId id : prog.bottomUpOrder()) {
        const Module &mod = prog.module(id);
        if (!mod.isLeaf())
            continue;
        for (unsigned width : coarse.widthSweep()) {
            MultiSimdArch sub = config.arch;
            sub.k = width;
            std::string key;
            if (cache) {
                {
                    Scope span(tracer, "cache.key");
                    key = leafScheduleKey(mod, width, suffix);
                }
                probes.push_back({&mod, sub, std::nullopt});
                std::shared_ptr<const LeafScheduleResult> hit;
                {
                    Scope span(tracer, "cache.lookup");
                    hit = cache->lookup(key);
                }
                tracer.count("cache.lookups", 1);
                if (hit && hit->matchesModule(mod.numOps(), mod.numQubits())) {
                    tracer.count("cache.hits", 1);
                    continue;
                }
                if (hit) {
                    cache->remove(key);
                    cache->countRejection();
                }
            }
            auto result = std::make_shared<LeafScheduleResult>();
            LeafSchedule sched(mod, width);
            {
                Scope span(tracer, sched_span);
                sched = scheduler->scheduleWithAttempt(mod, sub,
                                                       result->attempt);
            }
            const LeafSchedule unannotated = sched;
            {
                Scope span(tracer, "sched.comm_annotate");
                CommunicationAnalyzer comm(config.arch, config.commMode);
                result->stats = comm.annotate(sched);
            }
            {
                Scope span(tracer, "analysis.leaf_bounds");
                result->bounds = computeLeafBounds(mod, sub);
            }
            {
                Scope span(tracer, "analysis.summary");
                result->summary = summarizeLeafSchedule(sched, config.arch);
            }
            result->schedule = sched.sharedBuffer();
            result->opCount = mod.numOps();
            result->qubitCount = mod.numQubits();
            tracer.count("sched.leaf_tasks", 1);
            tracer.count("sched.leaf_ops", static_cast<double>(mod.numOps()));
            tracer.count("sched.comm_teleports",
                         static_cast<double>(result->stats.teleportMoves));
            if (cache) {
                Scope span(tracer, "cache.insert");
                cache->insert(key, std::move(result));
                tracer.count("cache.inserts", 1);
            } else {
                Scope span(tracer, "replica.plumbing");
                results->insert(leafScheduleKey(mod, width, suffix),
                                std::move(result));
            }
            probes.push_back({&mod, sub, unannotated});
        }
    }

    Scope span(tracer, "sched.coarse_pack");
    return coarse.schedule(prog);
}

namespace {

/** Keeps the probe calls' results observable. */
volatile uint64_t probeSink = 0;

} // anonymous namespace

void
runProbes(const std::vector<ProbeTask> &probes, const MultiSimdArch &arch,
          Tracer &tracer)
{
    using Scope = Tracer::Scope;
    Scope root(tracer, "probe");
    uint64_t sink = 0;
    for (const ProbeTask &task : probes) {
        if (!task.unannotated) {
            // leafScheduleKey hashes the module structure.
            Scope span(tracer, "ir.structural_hash");
            sink += task.mod->structuralHash();
            continue;
        }
        uint64_t edges = 0;
        {
            Scope span(tracer, "ir.dag_build");
            DepDag dag = DepDag::build(*task.mod);
            for (uint32_t n = 0; n < dag.numNodes(); ++n)
                edges += dag.succs(n).size();
        }
        tracer.count("ir.dag_edges", static_cast<double>(edges));
        {
            Scope span(tracer, "analysis.qubit_mapping");
            sink += computeQubitMapping(*task.mod, arch.topology).size();
        }
        tracer.count("analysis.qubit_mapping_calls", 1);
        {
            Scope span(tracer, "topology.router");
            sink += TopologyRouter(arch.topology).numEdges();
        }
        // applyCoreAffinity returns its input untouched on one core.
        if (arch.topology.multiCore()) {
            Scope span(tracer, "sched.core_affinity");
            sink += applyCoreAffinity(*task.unannotated, task.sub).k();
        }
    }
    probeSink = sink;
}

// --- LayerReport -----------------------------------------------------------

void
LayerReport::request(double untraced_ms, double traced_ms, bool ok)
{
    ++requests_;
    if (!ok)
        ++failed_;
    untracedMs_ += untraced_ms;
    tracedMs_ += traced_ms;
}

void
LayerReport::mismatch(const std::string &what)
{
    problems_.push_back("replica mismatch: " + what);
}

void
LayerReport::contrastFailure(const std::string &what)
{
    problems_.push_back("layer contrast: " + what);
}

double
LayerReport::value(const Tracer &tracer, const std::string &name) const
{
    auto fixed = fixed_.find(name);
    if (fixed != fixed_.end())
        return fixed->second;
    const double n = static_cast<double>(std::max<uint64_t>(requests_, 1));
    if (name == "cache.hit_ratio") {
        const double lookups = tracer.counter("cache.lookups");
        return lookups > 0 ? tracer.counter("cache.hits") / lookups : 0.0;
    }
    if (name == "cache_io.load_ms") {
        const double loads = tracer.counter("cache_io.loads");
        return loads > 0 ? tracer.selfMs("cache_io.load") / loads : 0.0;
    }
    if (name == "cache_io.save_ms") {
        const double saves = tracer.counter("cache_io.saves");
        return saves > 0 ? tracer.selfMs("cache_io.save") / saves : 0.0;
    }
    if (name == "cache_io.mb")
        return tracer.counter("cache_io.mb");
    if (name == "trace.unaccounted_frac") {
        const double total = tracer.totalMs("request");
        return total > 0 ? tracer.selfMs("request") / total : 0.0;
    }
    if (name == "trace.overhead_frac")
        return untracedMs_ > 0 ? tracedMs_ / untracedMs_ - 1.0 : 0.0;
    const size_t ms = name.rfind("_ms");
    if (ms != std::string::npos && ms + 3 == name.size())
        return tracer.selfMs(name.substr(0, ms)) / n;
    return tracer.counter(name) / n;
}

const std::vector<LayerReport::Metric> &
LayerReport::metrics()
{
    static const std::vector<Metric> list = {
        {"frontend.parse_ms", "ms", "self ms per request"},
        {"frontend.source_kb", "kB", "source kB per request"},
        {"workloads.build_ms", "ms", "self ms per request"},
        {"passes.decompose_toffoli_ms", "ms", "self ms per request"},
        {"passes.rotation_decomposer_ms", "ms", "self ms per request"},
        {"passes.flatten_ms", "ms", "self ms per request"},
        {"passes.ops_after", "count", "ops after flatten per request"},
        {"ir.validate_ms", "ms", "self ms per request"},
        {"analysis.estimators_ms", "ms", "self ms per request"},
        {"analysis.program_bounds_ms", "ms", "self ms per request"},
        {"analysis.leaf_bounds_ms", "ms", "self ms per request"},
        {"analysis.summary_ms", "ms", "self ms per request"},
        {"analysis.qubit_mapping_ms", "ms", "probe ms per request"},
        {"analysis.qubit_mapping_calls", "count", "probe calls per request"},
        {"ir.dag_build_ms", "ms", "probe ms per request"},
        {"ir.dag_edges", "count", "DAG edges per request"},
        {"ir.structural_hash_ms", "ms", "probe ms per request"},
        {"sched.rcp_ms", "ms", "self ms per request"},
        {"sched.lpfs_ms", "ms", "self ms per request"},
        {"sched.leaf_tasks", "count", "leaf x width tasks per request"},
        {"sched.leaf_ops", "count", "scheduled ops per request"},
        {"sched.comm_annotate_ms", "ms", "self ms per request"},
        {"sched.comm_teleports", "count", "teleports per request"},
        {"sched.core_affinity_ms", "ms", "probe ms per request"},
        {"cache.key_ms", "ms", "self ms per request"},
        {"cache.lookup_ms", "ms", "self ms per request"},
        {"cache.insert_ms", "ms", "self ms per request"},
        {"cache.lookups", "count", "lookups per request"},
        {"cache.inserts", "count", "inserts per request"},
        {"cache.hit_ratio", "ratio", "hits / lookups"},
        {"cache_io.load_ms", "ms", "ms per .msqc load"},
        {"cache_io.save_ms", "ms", "ms per .msqc save"},
        {"cache_io.mb", "MB", ".msqc file size"},
        {"sched.coarse_pack_ms", "ms", "self ms per request"},
        {"topology.router_ms", "ms", "probe ms per request"},
        {"serve.hash_ms", "ms", "self ms per request"},
        {"serve.overhead_ms", "ms",
         "handleLine minus run + bounds, ms per request"},
        {"pool.speedup", "ratio", "1-thread / 2-thread point time"},
        {"replica.plumbing_ms", "ms", "self ms per request"},
        {"trace.unaccounted_frac", "ratio",
         "request self time / request time"},
        {"trace.overhead_frac", "ratio",
         "replica time / untraced time - 1"},
    };
    return list;
}

void
LayerReport::print(const std::string &workload, const Tracer &tracer,
                   const Checker &checker) const
{
    std::printf("traced %s: %llu requests, %zu problems\n",
                workload.c_str(),
                static_cast<unsigned long long>(requests_), problems_.size());
    for (const std::string &problem : problems_)
        std::printf("FAIL %s\n", problem.c_str());
    std::vector<std::string> json;
    for (const Metric &metric : metrics()) {
        const double v = value(tracer, metric.name);
        std::printf("layer %s %.6g %s (%s)\n", metric.name, v, metric.unit,
                    metric.base);
        json.push_back(metricJson(metric.name, v, metric.unit));
    }
    printResult(checker.failures() == 0 && problems_.empty() &&
                    failed_ == 0 && requests_ > 0,
                std::max<uint64_t>(requests_, 1), failed_, json);
}

} // namespace perfbench
