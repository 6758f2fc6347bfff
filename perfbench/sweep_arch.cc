/**
 * @file
 * sweep-arch: design-space exploration. A seeded subset of the
 * programs is compiled across a grid of k, d, local memory, EPR
 * bandwidth and multi-core topology, one Toolflow::run per point on
 * two threads, all points of a sweep sharing one LeafScheduleCache.
 * This exercises the cache with inserts beside lookups, ThreadPool
 * fan-out, and the topology layers (qubit mapping, TopologyRouter,
 * core-affinity rebind) that the other workloads bypass.
 *
 * Within a flat (d, local memory, EPR) group the points differ only in
 * k, and the first one the seeded order visits gets the largest k, so
 * the later ones find every width they need in the cache. New groups
 * and topology points miss and insert.
 */

#include <map>

#include "bench.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

using namespace msq;

namespace perfbench {

namespace {

/** Measured sweeps per requested second, rounded to whole pairs (one
 * sweep of 54 points takes about 5 s on a 4-vCPU host, so a 20 s run
 * measures 4 sweeps = 216 points). */
constexpr double sweepsPerSecond = 0.2;

/** Set-up repetitions; setup_s is their median. */
constexpr int setupRepetitions = 5;

/** Threads per sweep point. */
constexpr unsigned pointThreads = 2;

/** The swept programs, in pairs: each sweep takes one of each. */
const char *const programPairs[][2] = {
    {"tfp", "grovers"},
    {"bwt", "shors"},
    {"bf", "cn"},
};

struct Group
{
    const char *name;
    uint64_t d;
    uint64_t localMem;
    uint64_t epr;
    const char *topology; ///< parseTopologySpec string, "" = flat
    std::vector<unsigned> ks; ///< total k of each point of the group
};

const std::vector<Group> &
groups()
{
    static const std::vector<Group> list = {
        {"flat", unbounded, 0, unbounded, "", {8, 4, 2, 1}},
        {"d16", 16, 0, unbounded, "", {8, 4, 2, 1}},
        {"local4", unbounded, 4, unbounded, "", {8, 4, 2, 1}},
        {"epr2", unbounded, 0, 2, "", {8, 4, 2, 1}},
        {"ring2x2", unbounded, 0, unbounded,
         "cores=2,k=2,shape=ring,link-bw=2", {4}},
        {"mesh4x2", unbounded, 0, unbounded,
         "cores=4,k=2,shape=mesh,link-bw=2", {8}},
    };
    return list;
}

struct Point
{
    std::string program;
    size_t group = 0;
    unsigned k = 0; ///< assigned per sweep
    std::string label;
    ToolflowConfig config;
    std::string line; ///< the same point as a daemon request
};

/** Configure @p p for its group and k, as the daemon would. */
void
configure(Point &p)
{
    const Group &g = groups()[p.group];
    p.config = ToolflowConfig{};
    p.config.scheduler = SchedulerKind::Lpfs;
    p.config.arch = MultiSimdArch(p.k, g.d, g.localMem);
    p.config.arch.eprBandwidth = g.epr;
    std::string error;
    if (*g.topology && !parseTopologySpec(g.topology, p.config.arch, error))
        fatal("sweep-arch: bad topology " + std::string(g.topology));
    p.config.commMode =
        g.localMem > 0 ? CommMode::GlobalWithLocalMem : CommMode::Global;
    p.config.rotations = Toolflow::rotationPresetFor(p.program);
    p.config.numThreads = pointThreads;
    p.label = csprintf("%s/%s/k=%u", p.program.c_str(), g.name,
                       p.config.arch.k);
    std::string knobs = csprintf("\"k\": %u", p.k);
    if (g.d != unbounded)
        knobs += csprintf(", \"d\": %llu", static_cast<unsigned long long>(g.d));
    if (g.localMem > 0) {
        knobs += csprintf(", \"local_mem\": %llu",
                          static_cast<unsigned long long>(g.localMem));
    }
    if (g.epr != unbounded) {
        knobs += csprintf(", \"epr\": %llu",
                          static_cast<unsigned long long>(g.epr));
    }
    if (*g.topology)
        knobs += csprintf(", \"topology\": \"%s\"", g.topology);
    p.line = csprintf("{\"id\": \"%s\", \"workload\": \"%s\", "
                      "\"scheduler\": \"lpfs\", %s}",
                      p.label.c_str(), p.program.c_str(), knobs.c_str());
}

/** Every point of one sweep over @p programs, in a seeded order. */
std::vector<Point>
makeSweep(const std::vector<std::string> &programs, SplitMix64 &rng)
{
    std::vector<Point> points;
    for (const std::string &program : programs) {
        for (size_t g = 0; g < groups().size(); ++g) {
            for (size_t c = 0; c < groups()[g].ks.size(); ++c) {
                Point p;
                p.program = program;
                p.group = g;
                points.push_back(std::move(p));
            }
        }
    }
    shuffle(points, rng);
    // The k values of a group go out largest first in visit order.
    std::map<std::pair<std::string, size_t>, size_t> next;
    for (Point &p : points) {
        p.k = groups()[p.group].ks[next[{p.program, p.group}]++];
        configure(p);
    }
    return points;
}

Program
buildProgram(const std::string &name)
{
    return workloads::findWorkload(workloads::scaledParams(), name).build();
}

/** One timed sweep point; @return its wall time in ms. */
double
compilePoint(const Point &p, std::shared_ptr<LeafScheduleCache> cache,
             unsigned threads, Checker &checker, Expected &expected,
             bool &ok)
{
    Program prog = buildProgram(p.program);
    ToolflowConfig config = p.config;
    config.sharedLeafCache = std::move(cache);
    config.numThreads = threads;
    const double start = nowMs();
    ToolflowResult result = Toolflow(config).run(prog);
    const double ms = nowMs() - start;
    ok = checker.checkCompile(p.label, prog, p.config, result.schedule,
                              expected);
    return ms;
}

} // anonymous namespace

int
runSweepArch(const Args &args)
{
    Report report;
    Checker checker;

    // The seed picks one program of each pair for the first sweep; the
    // next sweep takes the others, so every two sweeps cover all six.
    SplitMix64 rng(hashMix64(args.seed ^ 0x5eedULL));
    const size_t first = rng.nextBelow(2);
    auto subset = [&](unsigned sweep) {
        std::vector<std::string> programs;
        for (const auto &pair : programPairs)
            programs.push_back(pair[(first + sweep) % 2]);
        return programs;
    };

    // Set-up: build the programs and the sweep's configurations, and
    // warm the compiler on the three cheapest programs.
    for (int rep = 0; rep < setupRepetitions; ++rep) {
        const double start = nowMs();
        SplitMix64 setup_rng(args.seed);
        for (unsigned sweep = 0; sweep < 2; ++sweep) {
            for (const std::string &name : subset(sweep))
                buildProgram(name);
            makeSweep(subset(sweep), setup_rng);
        }
        for (const char *name : {"tfp", "grovers", "bwt"}) {
            Program warm = buildProgram(name);
            ToolflowConfig config;
            config.arch = MultiSimdArch(2, unbounded, 0);
            config.numThreads = pointThreads;
            Toolflow(config).run(warm);
        }
        report.setup((nowMs() - start) / 1000.0);
    }

    // Reference pass through the daemon (untimed, two requests at a
    // time): every point's expected makespan, hash and lower bound.
    std::map<std::string, Expected> expected;
    {
        SplitMix64 ref_rng(args.seed);
        std::vector<Point> points = makeSweep(subset(0), ref_rng);
        for (Point &p : makeSweep(subset(1), ref_rng))
            points.push_back(std::move(p));
        ServeOptions options;
        options.numThreads = 2;
        ServeEngine engine(options);
        std::vector<std::string> lines;
        for (const Point &p : points)
            lines.push_back(p.line);
        const std::vector<std::string> responses = engine.handleBatch(lines);
        for (size_t i = 0; i < points.size(); ++i) {
            checker.checkResponse(points[i].label + " (daemon)", responses[i],
                                  expected[points[i].label]);
        }
    }

    if (!args.trace) {
        const unsigned sweeps =
            2 * roundsFor(args.seconds, sweepsPerSecond / 2);
        for (unsigned s = 0; s < sweeps; ++s) {
            auto cache = std::make_shared<LeafScheduleCache>();
            for (const Point &p : makeSweep(subset(s), rng)) {
                bool ok = false;
                double ms = 0.0;
                try {
                    ms = compilePoint(p, cache, pointThreads, checker,
                                      expected[p.label], ok);
                } catch (const std::exception &e) {
                    checker.expect(false, p.label + ": " + e.what());
                }
                report.request(p.program + "/lpfs", ms, ok);
            }
        }
        for (const auto &[label, e] : expected)
            report.input(label.substr(0, label.find('/')) + "/lpfs", label,
                         e.makespan);
        report.print(args.workload, checker);
        return 0;
    }

    // Traced run: two sweeps, each point compiled on two threads and on
    // one (each with its own sweep cache), then by the replica over a
    // third cache that sees the same sequence of points.
    Tracer tracer;
    LayerReport layers;
    double ms1 = 0.0;
    double ms2 = 0.0;
    uint64_t request_id = 0;
    for (unsigned sweep = 0; sweep < 2; ++sweep) {
        auto cache2 = std::make_shared<LeafScheduleCache>();
        auto cache1 = std::make_shared<LeafScheduleCache>();
        auto replica_cache = std::make_shared<LeafScheduleCache>();
        for (const Point &p : makeSweep(subset(sweep), rng)) {
            Expected &e = expected[p.label];
            bool ok = false;
            ms2 += compilePoint(p, cache2, 2, checker, e, ok);
            bool ok1 = false;
            const double single = compilePoint(p, cache1, 1, checker, e, ok1);
            ms1 += single;

            std::vector<ProbeTask> probes;
            tracer.beginRequest(++request_id);
            Program prog = buildProgram(p.program);
            ToolflowConfig config = p.config;
            config.numThreads = 1;
            ProgramSchedule sched;
            const double start = nowMs();
            {
                Tracer::Scope request(tracer, "request");
                sched = replicaCompile(prog, config, replica_cache, tracer,
                                       probes);
            }
            const double traced = nowMs() - start;
            runProbes(probes, p.config.arch, tracer);
            if (sched.totalCycles != e.makespan || hashText(sched) != e.hash) {
                layers.mismatch(p.label);
                ok = false;
            }
            layers.request(single, traced, ok && ok1);
        }
    }
    layers.set("pool.speedup", ms2 > 0 ? ms1 / ms2 : 0.0);

    const double hit_ratio = layers.value(tracer, "cache.hit_ratio");
    if (!(hit_ratio > 0.0 && hit_ratio < 1.0))
        layers.contrastFailure("sweep-arch hit ratio is not inside (0, 1)");
    if (!(layers.value(tracer, "sched.core_affinity_ms") > 0.0))
        layers.contrastFailure("sweep-arch never ran the core-affinity pass");
    tracer.write(args.workDir + "/trace-sweep-arch.jsonl");
    layers.print(args.workload, tracer, checker);
    return 0;
}

} // namespace perfbench
