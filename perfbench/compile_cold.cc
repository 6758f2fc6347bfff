/**
 * @file
 * compile-cold: one-shot compiles from hierarchical QASM source, the
 * traffic where the leaf schedulers, CommunicationAnalyzer, leaf bounds
 * and the summary fold do almost all the work. Each request parses its
 * source and runs Toolflow::run with no leaf cache on one thread, so
 * the cache, .msqc I/O, thread pool and topology layers are bypassed.
 *
 * Inputs: the eight scaledParams() generators (BWT walk length and
 * SHA-1 round count jittered by the seed) crossed with {lpfs, rcp}. Each
 * round compiles every input once, in a seeded order, so every class's
 * samples span the host's slow and fast phases alike.
 */

#include <functional>
#include <sstream>

#include "bench.hh"
#include "frontend/qasm_emitter.hh"
#include "frontend/qasm_reader.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "workloads/workloads.hh"

using namespace msq;

namespace perfbench {

namespace {

/** Measured rounds per requested second (about 11 s per round on a
 * 4-vCPU host, so a 20 s run measures 3 rounds = 48 requests). */
constexpr double roundsPerSecond = 0.15;

/** Set-up repetitions; setup_s is their median. */
constexpr int setupRepetitions = 5;

struct Input
{
    std::string cls;   ///< generator/scheduler
    std::string label; ///< generator with its drawn size
    std::string qasm;
    ToolflowConfig config;
    Expected expected;
};

struct Generator
{
    const char *name;
    /** Build at a seed-drawn size; @p label receives the size. */
    std::function<Program(SplitMix64 &, std::string &)> build;
};

/** The scaledParams() instances; only sizes that keep each program's
 * compile cost and makespan within a few percent are jittered. */
std::vector<Generator>
generators()
{
    using namespace workloads;
    return {
        {"bf", [](SplitMix64 &, std::string &l) {
             l = "x=2,y=2";
             return buildBooleanFormula(2, 2);
         }},
        {"bwt", [](SplitMix64 &rng, std::string &l) {
             const unsigned s = 95 + static_cast<unsigned>(rng.nextBelow(11));
             l = csprintf("n=10,s=%u", s);
             return buildBwt(10, s);
         }},
        {"cn", [](SplitMix64 &, std::string &l) {
             l = "p=4";
             return buildClassNumber(4);
         }},
        {"grovers", [](SplitMix64 &, std::string &l) {
             l = "n=10";
             return buildGrovers(10);
         }},
        {"gse", [](SplitMix64 &, std::string &l) {
             l = "m=10,bits=6";
             return buildGse(10, 6);
         }},
        {"sha1", [](SplitMix64 &rng, std::string &l) {
             const unsigned rounds =
                 19 + static_cast<unsigned>(rng.nextBelow(2));
             l = csprintf("n=64,w=8,rounds=%u", rounds);
             return buildSha1(64, 8, rounds);
         }},
        {"shors", [](SplitMix64 &, std::string &l) {
             l = "n=8";
             return buildShors(8);
         }},
        {"tfp", [](SplitMix64 &, std::string &l) {
             l = "n=5";
             return buildTfp(5);
         }},
    };
}

/** Draw, generate and emit every input (the workload's set-up). */
std::vector<Input>
makeInputs(uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<Input> inputs;
    for (const Generator &gen : generators()) {
        std::string size;
        Program prog = gen.build(rng, size);
        std::ostringstream qasm;
        emitHierarchicalQasm(qasm, prog);
        for (SchedulerKind kind : {SchedulerKind::Lpfs, SchedulerKind::Rcp}) {
            Input in;
            in.cls = std::string(gen.name) + "/" + schedulerKindName(kind);
            in.label = std::string(gen.name) + "(" + size + ")";
            in.qasm = qasm.str();
            in.config.scheduler = kind;
            in.config.numThreads = 1;
            in.config.leafCache = false;
            // Shor's keeps its outlined rotations, as every other entry
            // point compiles it (Toolflow::rotationPresetFor).
            in.config.rotations = Toolflow::rotationPresetFor(gen.name);
            inputs.push_back(std::move(in));
        }
    }
    return inputs;
}

/** The daemon request compiling the same source as @p in, or "" when
 * the daemon cannot express its configuration: source requests always
 * inline rotations, so Shor's outlined preset has no equivalent. */
std::string
daemonRequest(const Input &in, size_t id)
{
    if (in.config.rotations.outline)
        return "";
    return csprintf("{\"id\": %zu, \"source\": \"%s\", \"format\": \"qasm\", "
                    "\"scheduler\": \"%s\", \"k\": 4, "
                    "\"comm_mode\": \"global\"}",
                    id, jsonEscape(in.qasm).c_str(),
                    schedulerKindName(in.config.scheduler));
}

/** One timed compile; @return its wall time in ms. */
double
compileOnce(Input &in, Checker &checker, bool &ok)
{
    const double start = nowMs();
    Program prog = parseHierarchicalQasm(in.qasm);
    ToolflowResult result = Toolflow(in.config).run(prog);
    const double ms = nowMs() - start;
    ok = checker.checkCompile(in.label + " " + in.cls, prog, in.config,
                              result.schedule, in.expected);
    return ms;
}

} // anonymous namespace

int
runCompileCold(const Args &args)
{
    Report report;
    Checker checker;

    // Set-up: generate and emit every input, then warm the compiler on
    // the smallest one. Repeated; the last repetition's inputs are used.
    std::vector<Input> inputs;
    for (int rep = 0; rep < setupRepetitions; ++rep) {
        const double start = nowMs();
        inputs = makeInputs(args.seed);
        Program warm = parseHierarchicalQasm(inputs.back().qasm);
        ToolflowConfig warm_config = inputs.back().config;
        Toolflow(warm_config).run(warm);
        report.setup((nowMs() - start) / 1000.0);
    }

    // Reference pass through the other entry point, untimed: the daemon
    // compiles the same sources (two requests at a time).
    {
        ServeOptions options;
        options.numThreads = 2;
        ServeEngine engine(options);
        std::vector<std::string> lines;
        std::vector<size_t> which;
        for (size_t i = 0; i < inputs.size(); ++i) {
            std::string line = daemonRequest(inputs[i], i);
            if (!line.empty()) {
                lines.push_back(std::move(line));
                which.push_back(i);
            }
        }
        const std::vector<std::string> responses = engine.handleBatch(lines);
        for (size_t r = 0; r < responses.size(); ++r) {
            Input &in = inputs[which[r]];
            checker.checkResponse(in.label + " " + in.cls + " (daemon)",
                                  responses[r], in.expected);
        }
    }

    SplitMix64 order_rng(hashMix64(args.seed ^ 0xc01dULL));
    std::vector<size_t> order(inputs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    if (!args.trace) {
        const unsigned rounds = roundsFor(args.seconds, roundsPerSecond);
        for (unsigned round = 0; round < rounds; ++round) {
            shuffle(order, order_rng);
            for (size_t i : order) {
                bool ok = false;
                double ms = 0.0;
                try {
                    ms = compileOnce(inputs[i], checker, ok);
                } catch (const std::exception &e) {
                    checker.expect(false, inputs[i].cls + ": " + e.what());
                }
                report.request(inputs[i].cls, ms, ok);
            }
        }
        for (const Input &in : inputs)
            report.input(in.cls, in.label, in.expected.makespan);
        report.print(args.workload, checker);
        return 0;
    }

    // Traced run: one round; each input is compiled untraced, then by
    // the stage-by-stage replica, which must agree with it.
    Tracer tracer;
    LayerReport layers;
    shuffle(order, order_rng);
    uint64_t request_id = 0;
    for (size_t i : order) {
        Input &in = inputs[i];
        bool ok = false;
        const double untraced = compileOnce(in, checker, ok);
        std::vector<ProbeTask> probes;
        tracer.beginRequest(++request_id);
        Program prog;
        ProgramSchedule sched;
        const double start = nowMs();
        {
            Tracer::Scope request(tracer, "request");
            {
                Tracer::Scope span(tracer, "frontend.parse");
                prog = parseHierarchicalQasm(in.qasm);
            }
            sched = replicaCompile(prog, in.config, nullptr, tracer, probes);
        }
        const double traced = nowMs() - start;
        tracer.count("frontend.source_kb",
                     static_cast<double>(in.qasm.size()) / 1024.0);
        runProbes(probes, in.config.arch, tracer);
        if (sched.totalCycles != in.expected.makespan ||
            hashText(sched) != in.expected.hash) {
            layers.mismatch(in.label + " " + in.cls);
            ok = false;
        }
        layers.request(untraced, traced, ok);
    }

    if (layers.value(tracer, "cache.lookups") != 0)
        layers.contrastFailure("compile-cold made leaf-cache lookups");
    tracer.write(args.workDir + "/trace-compile-cold.jsonl");
    layers.print(args.workload, tracer, checker);
    return 0;
}

} // namespace perfbench
