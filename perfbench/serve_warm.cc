/**
 * @file
 * serve-warm: a restarted msq-served engine answering from a warm
 * persistent cache. The leaf schedulers do no work here; request
 * parsing, program builds, passes, program analyses, the
 * MakespanBoundAnalysis every response carries, cache keys and
 * lookups, coarse packing and the NDJSON response do.
 *
 * An untimed priming engine compiles every request of the grid (named
 * scaledParams() workloads and the examples/programs sources, x {lpfs,
 * rcp} x k in {4, 2}) and saves its cache; set-up is a fresh engine
 * plus loadCache(). k = 2 needs only widths the k = 4 compile already
 * scheduled, so priming costs one cold compile per program and
 * scheduler, and every timed request must hit the cache.
 */

#include <algorithm>
#include <filesystem>

#include "analysis/bounds.hh"
#include "bench.hh"
#include "frontend/parser.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "workloads/workloads.hh"

using namespace msq;

namespace perfbench {

namespace {

/** Measured rounds per requested second (one round is 40 requests and
 * takes about 1 s on a 4-vCPU host, so a 20 s run measures 800). */
constexpr double roundsPerSecond = 1.0;

/** Set-up repetitions; setup_s is their median. */
constexpr int setupRepetitions = 5;

const unsigned archKnobs[] = {4, 2};

struct Entry
{
    std::string cls;   ///< program/scheduler
    std::string label; ///< program/scheduler/k
    std::string line;  ///< the NDJSON request
    std::string workload; ///< built-in workload, or "" for a source
    std::string source;
    ToolflowConfig config;
    Expected expected;
};

/** Build the program @p e names, as the daemon does. */
Program
buildProgram(const Entry &e)
{
    if (e.workload.empty())
        return parseScaffold(e.source);
    return workloads::findWorkload(workloads::scaledParams(), e.workload)
        .build();
}

std::vector<Entry>
makeGrid(const std::string &root)
{
    std::vector<std::pair<std::string, std::string>> programs;
    for (const auto &spec : workloads::scaledParams())
        programs.push_back({spec.shortName, ""});
    std::vector<std::string> files;
    for (const auto &file : std::filesystem::directory_iterator(
             root + "/examples/programs")) {
        if (file.path().extension() == ".scaffold")
            files.push_back(file.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string &file : files) {
        programs.push_back({std::filesystem::path(file).stem().string(),
                            readFile(file)});
    }

    std::vector<Entry> grid;
    for (const auto &[name, source] : programs) {
        for (SchedulerKind kind : {SchedulerKind::Lpfs, SchedulerKind::Rcp}) {
            for (unsigned k : archKnobs) {
                Entry e;
                e.cls = name + "/" + schedulerKindName(kind);
                e.label = e.cls + csprintf("/k=%u", k);
                const std::string program =
                    source.empty()
                        ? "\"workload\": \"" + name + "\""
                        : "\"source\": \"" + jsonEscape(source) + "\"";
                e.line = csprintf("{\"id\": \"%s\", %s, \"scheduler\": "
                                  "\"%s\", \"k\": %u}",
                                  e.label.c_str(), program.c_str(),
                                  schedulerKindName(kind), k);
                e.workload = source.empty() ? name : "";
                e.source = source;
                // The configuration the daemon derives from this line.
                e.config.scheduler = kind;
                e.config.arch = MultiSimdArch(k, unbounded, 0);
                e.config.commMode = CommMode::Global;
                e.config.numThreads = 1;
                if (source.empty())
                    e.config.rotations = Toolflow::rotationPresetFor(name);
                grid.push_back(std::move(e));
            }
        }
    }
    return grid;
}

} // anonymous namespace

int
runServeWarm(const Args &args)
{
    Report report;
    Checker checker;
    Tracer tracer;
    LayerReport layers;
    std::vector<Entry> grid = makeGrid(args.root);
    const std::string cache_path = args.workDir + "/serve-warm.msqc";

    // Priming (untimed): a cold engine compiles the whole grid, and its
    // responses become the expected values. One request at a time keeps
    // the process single-threaded, so peak_rss_mb repeats run to run.
    {
        ServeOptions options;
        options.numThreads = 1;
        options.cachePath = cache_path;
        ServeEngine engine(options);
        std::vector<std::string> lines;
        for (const Entry &e : grid)
            lines.push_back(e.line);
        const std::vector<std::string> responses = engine.handleBatch(lines);
        for (size_t i = 0; i < grid.size(); ++i) {
            checker.checkResponse(grid[i].label + " (priming)", responses[i],
                                  grid[i].expected);
        }
        Tracer::Scope span(tracer, "cache_io.save");
        checker.expect(engine.saveCache() == engine.cache().size(),
                       "priming cache was not saved");
    }
    tracer.count("cache_io.saves", 1);
    tracer.count("cache_io.mb",
                 static_cast<double>(std::filesystem::file_size(cache_path)) /
                     (1024.0 * 1024.0));

    // Set-up: a restarted engine loading the primed cache.
    ServeOptions options;
    options.numThreads = 1;
    options.cachePath = cache_path;
    std::unique_ptr<ServeEngine> engine;
    for (int rep = 0; rep < setupRepetitions; ++rep) {
        engine.reset();
        const double start = nowMs();
        engine = std::make_unique<ServeEngine>(options);
        const size_t loaded = engine->loadCache();
        report.setup((nowMs() - start) / 1000.0);
        checker.expect(loaded > 0, "warm start loaded no cache entries");
    }

    // The other entry point: Toolflow::run over a cache loaded from the
    // same file must reproduce every primed response.
    auto ref_cache = std::make_shared<LeafScheduleCache>();
    ref_cache->loadFrom(cache_path);
    for (Entry &e : grid) {
        Program prog = buildProgram(e);
        ToolflowConfig config = e.config;
        config.sharedLeafCache = ref_cache;
        ToolflowResult result = Toolflow(config).run(prog);
        checker.checkCompile(e.label + " (Toolflow::run)", prog, e.config,
                             result.schedule, e.expected);
    }

    // Warm-up: one untimed pass over the grid.
    for (Entry &e : grid) {
        checker.checkResponse(e.label + " (warm-up)", engine->handleLine(e.line),
                              e.expected, true);
    }

    SplitMix64 rng(hashMix64(args.seed ^ 0x5e7eULL));
    std::vector<size_t> named;
    std::vector<size_t> sources;
    for (size_t i = 0; i < grid.size(); ++i)
        (grid[i].workload.empty() ? sources : named).push_back(i);

    if (!args.trace) {
        // Each round: every named request plus half of the source
        // requests (alternating halves), shuffled together.
        const unsigned rounds = roundsFor(args.seconds, roundsPerSecond);
        for (unsigned round = 0; round < rounds; ++round) {
            std::vector<size_t> order = named;
            for (size_t s = round % 2; s < sources.size(); s += 2)
                order.push_back(sources[s]);
            shuffle(order, rng);
            for (size_t i : order) {
                Entry &e = grid[i];
                const double start = nowMs();
                const std::string response = engine->handleLine(e.line);
                const double ms = nowMs() - start;
                report.request(e.cls, ms,
                               checker.checkResponse(e.label, response,
                                                     e.expected, true));
            }
        }
        for (const Entry &e : grid)
            report.input(e.cls, e.label, e.expected.makespan);
        report.print(args.workload, checker);
        return 0;
    }

    // Traced run: each request through handleLine, through Toolflow::run
    // plus the program bounds (untraced), and through the replica over
    // a third copy of the cache.
    auto replica_cache = std::make_shared<LeafScheduleCache>();
    {
        Tracer::Scope span(tracer, "cache_io.load");
        replica_cache->loadFrom(cache_path);
    }
    tracer.count("cache_io.loads", 1);
    std::vector<size_t> order(grid.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    shuffle(order, rng);
    double overhead_ms = 0.0;
    uint64_t request_id = 0;
    for (size_t i : order) {
        Entry &e = grid[i];
        double start = nowMs();
        const std::string response = engine->handleLine(e.line);
        const double handle_ms = nowMs() - start;
        bool ok = checker.checkResponse(e.label, response, e.expected, true);

        start = nowMs();
        Program prog = buildProgram(e);
        const double build_ms = nowMs() - start;
        ToolflowConfig config = e.config;
        config.sharedLeafCache = ref_cache;
        start = nowMs();
        ToolflowResult result = Toolflow(config).run(prog);
        const double run_ms = nowMs() - start;
        start = nowMs();
        const uint64_t bound =
            MakespanBoundAnalysis(prog, config.arch, config.commMode)
                .programLowerBound();
        const double bounds_ms = nowMs() - start;
        start = nowMs();
        const std::string untraced_hash = hashText(result.schedule);
        const double hash_ms = nowMs() - start;
        overhead_ms += handle_ms - run_ms - bounds_ms;
        ok &= checker.expect(untraced_hash == e.expected.hash &&
                                 bound == e.expected.lowerBound,
                             e.label + ": Toolflow::run disagrees");

        std::vector<ProbeTask> probes;
        tracer.beginRequest(++request_id);
        Program replica;
        ProgramSchedule sched;
        uint64_t replica_bound = 0;
        std::string replica_hash;
        start = nowMs();
        {
            Tracer::Scope request(tracer, "request");
            if (e.workload.empty()) {
                Tracer::Scope span(tracer, "frontend.parse");
                replica = parseScaffold(e.source);
            } else {
                Tracer::Scope span(tracer, "workloads.build");
                replica = buildProgram(e);
            }
            sched = replicaCompile(replica, e.config, replica_cache, tracer,
                                   probes);
            {
                Tracer::Scope span(tracer, "analysis.program_bounds");
                replica_bound = MakespanBoundAnalysis(replica, e.config.arch,
                                                      e.config.commMode)
                                    .programLowerBound();
            }
            {
                Tracer::Scope span(tracer, "serve.hash");
                replica_hash = hashText(sched);
            }
        }
        const double traced = nowMs() - start;
        tracer.count("frontend.source_kb",
                     static_cast<double>(e.source.size()) / 1024.0);
        runProbes(probes, e.config.arch, tracer);
        if (sched.totalCycles != e.expected.makespan ||
            replica_hash != e.expected.hash ||
            replica_bound != e.expected.lowerBound) {
            layers.mismatch(e.label);
            ok = false;
        }
        layers.request(build_ms + run_ms + bounds_ms + hash_ms, traced, ok);
    }
    layers.set("serve.overhead_ms",
               overhead_ms / static_cast<double>(grid.size()));

    if (layers.value(tracer, "sched.leaf_tasks") != 0 ||
        layers.value(tracer, "sched.lpfs_ms") +
                layers.value(tracer, "sched.rcp_ms") !=
            0)
        layers.contrastFailure("serve-warm ran the leaf schedulers");
    if (layers.value(tracer, "cache.hit_ratio") != 1.0)
        layers.contrastFailure("serve-warm hit ratio is not 1.0");
    tracer.write(args.workDir + "/trace-serve-warm.jsonl");
    layers.print(args.workload, tracer, checker);
    return 0;
}

} // namespace perfbench
