/**
 * @file
 * Toolflow telemetry: a thread-safe metrics registry plus RAII trace
 * spans that emit Chrome trace-event JSON (chrome://tracing /
 * ui.perfetto.dev compatible).
 *
 * Metrics (MetricsRegistry) come in three kinds:
 *  - Counter: monotonic uint64, atomic add;
 *  - Gauge: last-written int64 (plus an atomic-max update);
 *  - Distribution: value stream summarised as count / sum / min / max /
 *    p50 / p99 at snapshot time.
 *
 * Naming convention: dotted lowercase paths ("comm.teleport_moves").
 * Distributions carrying wall-clock time end in "_ms"; everything else
 * is a pure function of the compiled program and configuration, so the
 * determinism contract of DESIGN.md §9 extends to it — counter, gauge
 * and non-"_ms" distribution values are bit-identical for every
 * ToolflowConfig::numThreads and for memoization on/off
 * (tests/test_determinism.cc).
 *
 * Snapshots (MetricsSnapshot) are sorted by name, so the rendered JSON
 * has a stable key order across runs and thread counts; only the values
 * of "_ms" entries vary. Both documents are written by the JsonWriter
 * of support/json.hh, which this header also exposes for jsonEscape and
 * jsonNumber.
 *
 * Trace spans (TraceSpan) record complete ("ph":"X") events with real
 * thread ids into one mutex-guarded list owned by a TraceRecorder, so
 * spans are safe inside ThreadPool fan-out (DESIGN.md §9); the list is
 * time-sorted at flush. Spans are coarse (at most one per leaf width
 * task or pass), so the lock is rarely contended. A disabled recorder
 * makes span construction a single relaxed atomic load.
 *
 * Process-wide wiring (Telemetry): a global registry/recorder pair plus
 * the MSQ_METRICS=<path> / MSQ_TRACE=<path> environment fallback used
 * by the bench harness — initFromEnv() enables collection and registers
 * an atexit hook that writes the files.
 */

#ifndef MSQ_SUPPORT_TELEMETRY_HH
#define MSQ_SUPPORT_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "support/json.hh"

namespace msq {

/** Monotonic counter (atomic; hot-path safe). */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-written value (atomic; also supports a monotonic-max update). */
class Gauge
{
  public:
    void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

    /** Raise the gauge to @p v if it is higher than the current value. */
    void
    setMax(int64_t v)
    {
        int64_t cur = value_.load(std::memory_order_relaxed);
        while (v > cur &&
               !value_.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed)) {
        }
    }

    int64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** Summary statistics of a Distribution at snapshot time. */
struct DistributionStats
{
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0; ///< nearest-rank median
    double p99 = 0.0; ///< nearest-rank 99th percentile
};

/**
 * A recorded value stream. Samples are kept verbatim (instrumented
 * sites record at most a few thousand values per run) and summarised
 * at snapshot time; percentiles are computed on the sorted sample set,
 * so they do not depend on recording order.
 */
class Distribution
{
  public:
    void record(double value);

    DistributionStats stats() const;

    /** Copy of the raw samples (for merging registries). */
    std::vector<double> samples() const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> samples_;
};

/** One named metric inside a snapshot. */
struct MetricEntry
{
    enum class Kind : uint8_t { Counter, Gauge, Distribution };

    std::string name;
    Kind kind = Kind::Counter;
    uint64_t counterValue = 0;   ///< Kind::Counter
    int64_t gaugeValue = 0;      ///< Kind::Gauge
    DistributionStats dist;      ///< Kind::Distribution
};

/** A point-in-time copy of a registry, sorted by metric name. */
struct MetricsSnapshot
{
    std::vector<MetricEntry> entries; ///< ascending by name

    /** Entry by name, or nullptr. */
    const MetricEntry *find(const std::string &name) const;

    /** Counter value by name (0 when absent). */
    uint64_t counter(const std::string &name) const;

    /** Gauge value by name (0 when absent). */
    int64_t gauge(const std::string &name) const;

    /**
     * Write as one JSON document (no trailing newline):
     *   {"version": 1, "metrics": [{"name": ..., "type": "counter",
     *    "value": N} | {..., "type": "gauge", "value": N} |
     *    {..., "type": "distribution", "count": N, "sum": X, "min": X,
     *    "max": X, "p50": X, "p99": X}, ...]}
     * Entries appear in sorted-name order — stable across runs.
     */
    void writeJson(std::ostream &os) const;
};

/**
 * Thread-safe named metric registry. counter()/gauge()/distribution()
 * create on first use and return references that stay valid for the
 * registry's lifetime, so hot loops can resolve a metric once and
 * update it lock-free afterwards.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Distribution &distribution(const std::string &name);

    /** Sorted point-in-time copy of every metric. */
    MetricsSnapshot snapshot() const;

    /**
     * Fold this registry into @p dst: counters add, gauges overwrite
     * (setMax for names ending in "_peak"), distributions append their
     * samples. Used to accumulate per-run registries into the global
     * MSQ_METRICS sink.
     */
    void mergeInto(MetricsRegistry &dst) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Distribution>> distributions_;
};

/** One "args" member of a trace event: a count or a string. */
struct TraceArg
{
    using Value = std::variant<uint64_t, std::string>;

    std::string key;
    Value value;
};

/** One completed trace event ("ph":"X" in the Chrome trace format). */
struct TraceEvent
{
    std::string name;
    std::vector<TraceArg> args; ///< the "args" object, in order
    uint64_t tsUs = 0;  ///< start, microseconds since process start
    uint64_t durUs = 0; ///< duration, microseconds
    uint32_t tid = 0;   ///< OS thread id
};

/**
 * Collects trace events into one list under a mutex; flush() drains it
 * sorted by timestamp. Disabled (the default) the recorder costs one
 * relaxed atomic load per span.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    void setEnabled(bool enabled);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Append a completed event. */
    void record(TraceEvent event);

    /** Drain the recorded events, sorted by (ts, tid, name). */
    std::vector<TraceEvent> flush();

    /**
     * flush() written as one Chrome trace document (no trailing
     * newline):
     *   {"displayTimeUnit": "ms", "traceEvents": [{"name": ...,
     *    "cat": "msq", "ph": "X", "ts": N, "dur": N, "pid": N,
     *    "tid": N, "args": {...}}, ...]}
     */
    void writeChromeTrace(std::ostream &os);

    /** The OS thread id recorded into events (gettid on Linux). */
    static uint32_t currentThreadId();

  private:
    std::atomic<bool> enabled_{false};
    std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * RAII span: records one complete trace event covering its lifetime.
 * Construction against a disabled recorder deactivates the span
 * entirely (no clock read, no allocation). For spans with expensive
 * names or args, guard on recorder.enabled() before composing them.
 */
class TraceSpan
{
  public:
    TraceSpan(TraceRecorder &recorder, std::string name);
    TraceSpan(TraceSpan &&) = delete;
    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;
    ~TraceSpan();

    bool active() const { return recorder_ != nullptr; }

    /** Append one member to the event's "args" object (no-op when
     * inactive); the trace writer escapes it. */
    TraceSpan &arg(std::string key, TraceArg::Value value);

  private:
    TraceRecorder *recorder_ = nullptr;
    std::string name_;
    std::vector<TraceArg> args_;
    uint64_t startUs_ = 0;
};

/** Microseconds since process start (steady clock). */
uint64_t telemetryNowUs();

/** Wall-clock stopwatch (steady clock). */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** RAII timer recording its lifetime into a "_ms" distribution. */
class ScopedTimerMs
{
  public:
    explicit ScopedTimerMs(Distribution &dist) : dist_(dist) {}
    ScopedTimerMs(const ScopedTimerMs &) = delete;
    ScopedTimerMs &operator=(const ScopedTimerMs &) = delete;
    ~ScopedTimerMs() { dist_.record(timer_.elapsedMs()); }

  private:
    Distribution &dist_;
    WallTimer timer_;
};

/**
 * Process-wide telemetry wiring: the global metrics sink, the global
 * trace recorder, and the environment fallback.
 */
class Telemetry
{
  public:
    /** The global metrics registry (the MSQ_METRICS sink). */
    static MetricsRegistry &metrics();

    /** The global trace recorder every TraceSpan in the library uses. */
    static TraceRecorder &trace();

    /**
     * Whether per-run registries should mergeInto() the global one
     * (Toolflow::run does so when this is set). Enabled by
     * initFromEnv() when MSQ_METRICS names an output file.
     */
    static bool metricsEnabled();

    /**
     * Honor the environment: MSQ_METRICS=<path> enables global metric
     * accumulation, MSQ_TRACE=<path> enables the trace recorder; both
     * register one atexit hook that writes the files. Idempotent; the
     * bench harness calls this from bench::banner().
     */
    static void initFromEnv();
};

} // namespace msq

#endif // MSQ_SUPPORT_TELEMETRY_HH
