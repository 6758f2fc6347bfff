/**
 * @file
 * Serving-layer latency baseline: replays synthetic mixed-workload
 * traffic against an in-process ServeEngine (the exact engine behind
 * msq-served, minus pipe overhead) in two phases:
 *
 *   cold   fresh engine, empty cache — every request pays full leaf
 *          scheduling; the cache is persisted at the end of the phase
 *   warm   fresh engine in the same process, cache loaded from the
 *          file the cold phase wrote — the daemon-restart case the
 *          persistent cache exists for
 *
 * and reports requests/sec plus p50/p99 per-request latency for each,
 * writing BENCH_serve_latency.json for the CI regression gate. The
 * determinism contract (DESIGN.md §15) is cross-checked on the fly:
 * every warm response must carry the same schedule_hash, makespan,
 * critical_path, lower_bound, total_gates and qubits as its cold twin,
 * its compile must fold as many ops into leaf-cache keys
 * (sched.leaf.ops_hashed, the ops_hashed column), and the warm phase
 * must end at leaf-cache hit rate 1.0 — the bench exits 1 on any
 * violation, so the committed baseline doubles as a regression test.
 *
 * Environment knobs:
 *   MSQ_BENCH_THREADS  batch parallelism (default 8)
 *   MSQ_BENCH_REPS     requests per workload per phase (default 3)
 * Each is a count >= 1; any other value exits 2 before any work.
 *
 * Usage: bench_serve_latency [output.json]   (default
 * BENCH_serve_latency.json in the working directory)
 */

#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "core/serve.hh"
#include "support/json.hh"
#include "support/strings.hh"

using namespace msq;

namespace {

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    size_t index = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
    return sorted[std::min(index, sorted.size() - 1)];
}

/** The deterministic fields of one response. */
struct Served
{
    std::string scheduleHash;
    uint64_t makespan = 0;
    uint64_t criticalPath = 0;
    uint64_t lowerBound = 0;
    uint64_t totalGates = 0;
    uint64_t qubits = 0;
    uint64_t opsHashed = 0; ///< sched.leaf.ops_hashed of the request

    bool operator==(const Served &) const = default;

    /** The fields as members of the object @p json has open. */
    void
    write(JsonWriter &json) const
    {
        json.member("schedule_hash", scheduleHash, "makespan", makespan,
                    "critical_path", criticalPath,
                    "lower_bound", lowerBound, "total_gates", totalGates,
                    "qubits", qubits, "ops_hashed", opsHashed);
    }

    /** The fields as one JSON object, for messages. */
    std::string
    json() const
    {
        std::ostringstream os;
        JsonWriter json(os);
        json.beginObject();
        write(json);
        json.endObject();
        return os.str();
    }
};

struct PhaseResult
{
    std::string phase;
    size_t requests = 0;
    double wallMs = 0.0;
    double rps = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double hitRate = 0.0;
    /** workload -> deterministic fields of the last response. */
    std::map<std::string, Served> results;
};

/** Run @p traffic through a fresh engine; warm = load the cache. */
PhaseResult
runPhase(const std::string &phase, const std::string &cache_path,
         bool warm, unsigned threads,
         const std::vector<std::pair<std::string, std::string>> &traffic)
{
    ServeOptions options;
    options.defaults.k = 8;
    options.numThreads = threads;
    options.cachePath = cache_path;
    ServeEngine engine(options);
    if (warm) {
        engine.loadCache();
        if (engine.diags().numWarnings() > 0) {
            std::cerr << engine.diags().formatAll();
            std::exit(1);
        }
    }

    PhaseResult out;
    out.phase = phase;
    std::vector<double> latencies;
    WallTimer timer;
    const Counter &opsHashed =
        engine.metrics().counter("sched.leaf.ops_hashed");
    for (const auto &[workload, line] : traffic) {
        const uint64_t hashedBefore = opsHashed.value();
        WallTimer requestTimer;
        std::string response = engine.handleLine(line);
        latencies.push_back(requestTimer.elapsedMs());

        std::string error;
        auto json = parseJson(response, error);
        if (!json || !json->get("ok").asBool()) {
            std::cerr << phase << ": request for " << workload
                      << " failed: " << response << "\n";
            std::exit(1);
        }
        out.results[workload] = {
            json->get("schedule_hash").asString(),
            json->get("makespan").asUnsigned(),
            json->get("critical_path").asUnsigned(),
            json->get("lower_bound").asUnsigned(),
            json->get("total_gates").asUnsigned(),
            json->get("qubits").asUnsigned(),
            opsHashed.value() - hashedBefore};
    }
    out.wallMs = timer.elapsedMs();
    out.requests = traffic.size();
    out.rps = out.wallMs > 0.0 ? 1000.0 * out.requests / out.wallMs : 0.0;
    out.p50Ms = percentile(latencies, 0.50);
    out.p99Ms = percentile(latencies, 0.99);
    const uint64_t hits = engine.cache().hits();
    const uint64_t misses = engine.cache().misses();
    out.hitRate = hits + misses == 0
                      ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(hits + misses);
    if (!warm)
        engine.saveCache();
    return out;
}

void
writePhaseJson(JsonWriter &json, const PhaseResult &phase)
{
    json.beginObject().member(
        "phase", phase.phase, "requests", phase.requests,
        "wall_ms", phase.wallMs, "requests_per_sec", phase.rps,
        "p50_ms", phase.p50Ms, "p99_ms", phase.p99Ms,
        "hit_rate", phase.hitRate);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned threads = bench::envCount("MSQ_BENCH_THREADS", 8);
    const unsigned reps = bench::envCount("MSQ_BENCH_REPS", 3);
    bench::banner("bench_serve_latency: msq-served cold vs warm start",
                  "DESIGN.md §15 (serving layer; extends DESIGN.md §9 "
                  "determinism to daemon restarts)");
    const std::string output =
        argc > 1 ? argv[1] : "BENCH_serve_latency.json";
    const std::string cachePath = output + ".cache.tmp";
    std::remove(cachePath.c_str());

    // Mixed traffic: `reps` interleaved rounds over all eight scaled
    // workloads, the same request line every time (the steady-state
    // recompile traffic a build farm generates).
    std::vector<std::pair<std::string, std::string>> traffic;
    const auto specs = workloads::scaledParams();
    for (unsigned rep = 0; rep < reps; ++rep) {
        for (const auto &spec : specs) {
            std::ostringstream line;
            JsonWriter(line)
                .beginObject()
                .member("id", spec.shortName + "-" + std::to_string(rep),
                        "workload", spec.shortName, "k", 8)
                .endObject();
            traffic.emplace_back(spec.shortName, line.str());
        }
    }

    PhaseResult cold =
        runPhase("cold", cachePath, false, threads, traffic);
    PhaseResult warm =
        runPhase("warm", cachePath, true, threads, traffic);
    std::remove(cachePath.c_str());

    // Determinism cross-check: warm must replay cold bit-identically
    // and never recompute a leaf (hit rate 1.0).
    bool ok = true;
    for (const auto &[workload, coldResult] : cold.results) {
        const auto &warmResult = warm.results[workload];
        if (coldResult != warmResult) {
            std::cerr << "DETERMINISM VIOLATION: " << workload
                      << " cold {" << coldResult.json() << "} vs warm {"
                      << warmResult.json() << "}\n";
            ok = false;
        }
    }
    if (warm.hitRate < 1.0) {
        std::cerr << "WARM-START VIOLATION: hit rate "
                  << warm.hitRate << " != 1.0\n";
        ok = false;
    }

    std::cout << "phase   requests   req/s      p50 ms    p99 ms   "
              << "hit rate\n";
    for (const PhaseResult *phase : {&cold, &warm}) {
        std::cout << csprintf("%-7s %8zu %8.2f %9.3f %9.3f %9.3f\n",
                              phase->phase.c_str(), phase->requests,
                              phase->rps, phase->p50Ms, phase->p99Ms,
                              phase->hitRate);
    }
    std::cout << "\nwarm speedup (p50): "
              << csprintf("%.2fx", warm.p50Ms > 0.0
                                       ? cold.p50Ms / warm.p50Ms
                                       : 0.0)
              << "\ndeterminism: " << (ok ? "ok" : "VIOLATED") << "\n";

    const bool written =
        bench::writeReport(output, [&](JsonWriter &json) {
            json.beginObject().member(
                "bench", "bench_serve_latency", "threads", threads,
                "reps", reps, "workloads", specs.size(),
                "determinism_ok", ok, "warm_hit_rate", warm.hitRate);
            json.key("phases").beginArray();
            writePhaseJson(json, cold);
            writePhaseJson(json, warm);
            json.endArray().key("results").beginArray();
            for (const auto &[workload, result] : cold.results) {
                json.beginObject().member("workload", workload);
                result.write(json);
                json.endObject();
            }
            json.endArray().endObject();
        });
    return ok && written ? 0 : 1;
}
