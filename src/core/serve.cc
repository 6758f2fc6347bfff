#include "core/serve.hh"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/bounds.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "frontend/qasm_reader.hh"
#include "sched/cache_io.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

namespace msq {

namespace {

/** The "id" field is echoed back as-is (string or number) so clients
 * can correlate pipelined responses; anything else becomes null. An
 * integral id within +-2^53 (every integer a double holds exactly)
 * prints as an integer, not in jsonNumber's shortest form ("1e+01"). */
void
writeId(JsonWriter &json, const JsonValue &id)
{
    json.key("id");
    if (id.isString()) {
        json.value(id.asString());
    } else if (id.isNumber()) {
        const double value = id.asNumber();
        constexpr double exact = 9007199254740992.0; // 2^53
        if (std::trunc(value) == value && std::fabs(value) <= exact)
            json.value(static_cast<int64_t>(value));
        else
            json.value(value);
    } else {
        json.null();
    }
}

std::string
errorResponse(const JsonValue &id, const std::string &message)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    writeId(json, id);
    json.member("ok", false, "error", message).endObject();
    return os.str();
}

/** Everything decoded out of one request line. */
struct Request
{
    JsonValue id; ///< the request's "id", echoed back
    Program prog;
    std::string name;
    ToolflowConfig config;
};

bool
parseRequest(const std::string &line, const CompileRequest &defaults,
             Request &out, std::string &error)
{
    std::unique_ptr<JsonValue> parsed = parseJson(line, error);
    if (!parsed)
        return false;
    const JsonValue &req = *parsed;
    if (!req.isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    out.id = req.get("id");

    const std::string &workload = req.get("workload").asString();
    const std::string &source = req.get("source").asString();
    if (workload.empty() == source.empty()) {
        error = "exactly one of \"workload\" or \"source\" is required";
        return false;
    }
    // The request's keys override the daemon's defaults; a bad topology
    // spec is an error response, never a dead daemon.
    CompileRequest request = defaults;
    if (!readRequestJson(request, req, error))
        return false;
    std::optional<ToolflowConfig> config = toolflowConfig(request, error);
    if (!config)
        return false;
    out.config = std::move(*config);

    if (!workload.empty()) {
        if (!buildRequestWorkload(request, workload, out.prog, out.config,
                                  error))
            return false;
        out.name = workload;
    } else {
        const std::string format = req.has("format")
                                       ? req.get("format").asString()
                                       : "scaffold";
        try {
            if (format == "scaffold")
                out.prog = parseScaffold(source);
            else if (format == "qasm")
                out.prog = parseHierarchicalQasm(source);
            else {
                error = "unknown source format \"" + format + "\"";
                return false;
            }
        } catch (const FatalError &e) {
            error = std::string("parse error: ") + e.what();
            return false;
        }
        workloads::scaleWorkload(out.prog, request.scale);
        out.name = "source";
    }

    // Per-request scheduling is single-threaded: parallelism lives at
    // the batch level, and this keeps each response bit-identical to a
    // standalone sequential run (DESIGN.md §9).
    out.config.numThreads = 1;
    return true;
}

} // anonymous namespace

uint64_t
hashProgramSchedule(const ProgramSchedule &sched)
{
    // A non-leaf has no result: it folds a Heuristic provenance and
    // zero movement.
    static const LeafScheduleResult none;
    Fnv1aFold fold;
    fold.u64(sched.totalCycles);
    fold.u64(sched.modules.size());
    for (const ModuleScheduleInfo &info : sched.modules) {
        fold.u64(info.analyzed ? 1 : 0);
        if (!info.analyzed)
            continue;
        const LeafScheduleResult &leaf = info.result ? *info.result : none;
        fold.u64(info.leaf ? 1 : 0);
        fold.u64(static_cast<uint64_t>(leaf.attempt.provenance));
        fold.u64(info.dims.size());
        for (const Blackbox &bb : info.dims) {
            fold.u64(bb.width);
            fold.u64(bb.length);
        }
        fold.u64(leaf.summary.teleportMoves.clampU64());
        fold.u64(leaf.summary.blockingTeleports.clampU64());
        fold.u64(leaf.summary.localMoves.clampU64());
        fold.u64(leaf.summary.serialCycles.clampU64());
    }
    return fold.hash;
}

ServeEngine::ServeEngine(ServeOptions options)
    : options_(std::move(options)),
      cache_(std::make_shared<LeafScheduleCache>())
{}

size_t
ServeEngine::loadCache()
{
    if (options_.cachePath.empty())
        return 0;
    // A missing file is a normal cold start, not a diagnostic.
    if (!std::ifstream(options_.cachePath).good())
        return 0;
    return cache_->loadFrom(options_.cachePath, &diags_);
}

size_t
ServeEngine::saveCache()
{
    if (options_.cachePath.empty())
        return SIZE_MAX;
    return cache_->saveTo(options_.cachePath, &diags_);
}

std::string
ServeEngine::handleLine(const std::string &line)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    Request request;
    std::string error;
    if (!parseRequest(line, options_.defaults, request, error))
        return errorResponse(request.id, error);

    const auto start = std::chrono::steady_clock::now();
    ToolflowResult result;
    MetricsRegistry local;
    uint64_t lowerBound = 0;
    try {
        request.config.sharedLeafCache = cache_;
        request.config.metrics = &local;
        Toolflow toolflow(request.config);
        result = toolflow.run(request.prog);
        // Optimality gap against the hierarchical lower bound of the
        // *lowered* program (run() rewrites it in place). The leaf
        // bounds come with the leaf schedules, memoized under the same
        // cache keys, so a warm request derives none of them.
        MakespanBoundAnalysis bounds(
            request.prog, request.config.arch, request.config.commMode,
            nullptr, [&](const Module &, ModuleId id) {
                return result.schedule.forModule(id).result->bounds;
            });
        lowerBound = bounds.programLowerBound();
    } catch (const std::exception &e) {
        return errorResponse(request.id,
                             std::string("compile failed: ") + e.what());
    }
    // Daemon-lifetime accumulation: each request's registry merges once
    // into the engine's, which msq-served's --metrics file snapshots,
    // and into the process-wide MSQ_METRICS sink when that is enabled.
    local.mergeInto(metrics_);
    if (Telemetry::metricsEnabled())
        local.mergeInto(Telemetry::metrics());

    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    const uint64_t hits = cache_->hits();
    const uint64_t misses = cache_->misses();
    const double hitRate =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
    const std::string scheduleHash =
        csprintf("%016llx", static_cast<unsigned long long>(
                                hashProgramSchedule(result.schedule)));
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    writeId(json, request.id);
    json.member("ok", true, "workload", request.name,
                "makespan", result.scheduledCycles,
                "total_gates", result.totalGates, "qubits", result.qubits,
                "critical_path", result.criticalPath,
                "speedup", result.speedupVsSequential,
                "lower_bound", lowerBound,
                "gap", optimalityGap(result.scheduledCycles, lowerBound),
                "schedule_hash", scheduleHash);
    json.key("cache").beginObject();
    json.member("hits", hits, "misses", misses, "loads", cache_->loads(),
                "rejections", cache_->rejections(), "size", cache_->size(),
                "hit_rate", hitRate);
    json.endObject().key("telemetry").beginObject();
    json.member("leaf_cache_hits", result.leafCacheHits,
                "leaf_cache_misses", result.leafCacheMisses,
                "metrics", result.telemetry.entries.size());
    json.endObject().member("wall_ms", wallMs).endObject();
    return os.str();
}

std::vector<std::string>
ServeEngine::handleBatch(const std::vector<std::string> &lines)
{
    std::vector<std::string> responses(lines.size());
    ThreadPool pool(options_.numThreads);
    pool.parallelFor(lines.size(), [&](uint64_t i) {
        responses[i] = handleLine(lines[i]);
    });
    return responses;
}

} // namespace msq
