/**
 * @file
 * Compile-as-a-service engine behind the `msq-served` daemon: one
 * NDJSON compile request in, one NDJSON response out, with a shared
 * persistent LeafScheduleCache amortizing leaf scheduling across
 * requests *and* process restarts (DESIGN.md §15).
 *
 * The engine is the testable core — tools/msq_served.cc is a thin
 * stdin/stdout loop around it, and perfbench's serve-warm workload
 * drives it in-process.
 *
 * Request (one JSON object per line):
 *   {"id": <any>,                     echoed back verbatim-ish (string/num)
 *    "workload": "bwt",               built-in benchmark shortName, or
 *    "source": "...", "format": "scaffold"|"qasm",
 *    "params": "tiny"|"scaled"|"paper" (default "scaled"),
 *    "scale": N,                      repeat-wrapper scale factor
 *    "scheduler": "lpfs"|"rcp"|"opt"|"sequential" (default "lpfs"),
 *    "k": N, "d": N, "local_mem": N, "epr": N,
 *    "comm_mode": "none"|"global"|"local",
 *    "topology": "cores=4,k=2,shape=ring,link-bw=1,link-lat=3"}
 *
 * Every field but id, workload, source and format is a CompileRequest
 * key (core/request.hh): a request copies the daemon's
 * ServeOptions::defaults and overrides the keys it carries. The
 * "topology" field (parseTopologySpec grammar) reshapes the machine
 * into a multi-core one; "" is the flat single-core Multi-SIMD(k,d).
 * The topology is part of the leaf-cache key
 * (MultiSimdArch::fingerprint), so requests against different
 * topologies never share cached leaf schedules.
 *
 * Response: {"id", "ok", "makespan", "total_gates", "qubits",
 * "critical_path", "speedup", "lower_bound", "gap", "schedule_hash",
 * "cache": {hits, misses, loads, rejections, size, hit_rate},
 * "telemetry": {...}, "wall_ms"} — or {"id", "ok": false, "error"} for
 * malformed/failed requests (a bad request never kills the daemon).
 *
 * Determinism contract (extends DESIGN.md §9): "schedule_hash" and
 * every schedule-derived field are bit-identical for a given request
 * whether the cache is cold, warm from earlier requests, or warm from
 * loadCache() in a fresh process — only wall-clock and cache-traffic
 * fields may differ.
 */

#ifndef MSQ_CORE_SERVE_HH
#define MSQ_CORE_SERVE_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/request.hh"
#include "sched/coarse.hh"
#include "sched/leaf_cache.hh"
#include "support/telemetry.hh"

namespace msq {

/** Daemon-level configuration of a ServeEngine. */
struct ServeOptions
{
    /** Machine and scheduler defaults; each request copies them and
     * overrides the keys it carries. */
    CompileRequest defaults;

    /** Batch parallelism for handleBatch (0 = hardware threads). Each
     * request schedules single-threaded; parallelism is across
     * requests, which keeps every response bit-identical to a
     * sequential run of the same request. */
    unsigned numThreads = 0;

    /** Cache persistence path ("" disables loadCache/saveCache). */
    std::string cachePath;
};

/** FNV-1a fold of every schedule-derived field of @p sched — the
 * cheap bit-identity probe the warm-start tests compare. Covers all
 * module dims, comm stats, provenance, and totalCycles. */
uint64_t hashProgramSchedule(const ProgramSchedule &sched);

/** One compile-service instance: shared cache + request handling. */
class ServeEngine
{
  public:
    explicit ServeEngine(ServeOptions options);

    /**
     * Load options.cachePath into the shared cache (warm start).
     * @return entries loaded (0 when the path is unset, missing, or
     * rejected; rejections are P-code diagnostics in diags()).
     */
    size_t loadCache();

    /**
     * Persist the shared cache to options.cachePath.
     * @return entries written, or SIZE_MAX on error/unset path.
     */
    size_t saveCache();

    /** Handle one NDJSON request line; returns the response line
     * (without trailing newline). Never throws on bad input. */
    std::string handleLine(const std::string &line);

    /**
     * Handle a batch of request lines concurrently through the
     * ThreadPool (options.numThreads). Response i corresponds to
     * request i; each response equals what handleLine(lines[i]) would
     * produce modulo wall-clock and cache-traffic counters.
     */
    std::vector<std::string>
    handleBatch(const std::vector<std::string> &lines);

    const LeafScheduleCache &cache() const { return *cache_; }
    LeafScheduleCache &cache() { return *cache_; }

    /** Daemon-lifetime metrics (per-request registries merge in here,
     * so nothing is lost when the process never exits cleanly). */
    MetricsRegistry &metrics() { return metrics_; }

    /** Requests handled so far (ok and failed alike). */
    uint64_t requestsServed() const { return requests_.load(); }

    /** Load/save diagnostics (P-codes accumulate across calls). */
    DiagnosticEngine &diags() { return diags_; }

    const ServeOptions &options() const { return options_; }

  private:
    ServeOptions options_;
    std::shared_ptr<LeafScheduleCache> cache_;
    MetricsRegistry metrics_;
    DiagnosticEngine diags_;
    std::atomic<uint64_t> requests_{0};
};

} // namespace msq

#endif // MSQ_CORE_SERVE_HH
