#include "support/telemetry.hh"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <ostream>
#include <thread>

#ifdef __linux__
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace msq {

// --- Distribution -------------------------------------------------------

void
Distribution::record(double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(value);
}

std::vector<double>
Distribution::samples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

DistributionStats
Distribution::stats() const
{
    std::vector<double> sorted = samples();
    DistributionStats stats;
    if (sorted.empty())
        return stats;
    std::sort(sorted.begin(), sorted.end());
    stats.count = sorted.size();
    for (double v : sorted)
        stats.sum += v;
    stats.min = sorted.front();
    stats.max = sorted.back();
    // Nearest-rank percentiles: the smallest sample such that at least
    // p% of the set is <= it.
    auto rank = [&](unsigned pct) {
        size_t r = (sorted.size() * pct + 99) / 100;
        return sorted[r > 0 ? r - 1 : 0];
    };
    stats.p50 = rank(50);
    stats.p99 = rank(99);
    return stats;
}

// --- MetricsSnapshot ----------------------------------------------------

const MetricEntry *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricEntry &entry : entries)
        if (entry.name == name)
            return &entry;
    return nullptr;
}

uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    const MetricEntry *entry = find(name);
    return entry != nullptr ? entry->counterValue : 0;
}

int64_t
MetricsSnapshot::gauge(const std::string &name) const
{
    const MetricEntry *entry = find(name);
    return entry != nullptr ? entry->gaugeValue : 0;
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject().member("version", 1).key("metrics").beginArray();
    for (const MetricEntry &entry : entries) {
        json.beginObject().member("name", entry.name);
        switch (entry.kind) {
          case MetricEntry::Kind::Counter:
            json.member("type", "counter", "value", entry.counterValue);
            break;
          case MetricEntry::Kind::Gauge:
            json.member("type", "gauge", "value", entry.gaugeValue);
            break;
          case MetricEntry::Kind::Distribution:
            json.member("type", "distribution", "count", entry.dist.count,
                        "sum", entry.dist.sum, "min", entry.dist.min,
                        "max", entry.dist.max, "p50", entry.dist.p50,
                        "p99", entry.dist.p99);
            break;
        }
        json.endObject();
    }
    json.endArray().endObject();
}

// --- MetricsRegistry ----------------------------------------------------

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Distribution &
MetricsRegistry::distribution(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = distributions_[name];
    if (!slot)
        slot = std::make_unique<Distribution>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_) {
        MetricEntry entry;
        entry.name = name;
        entry.kind = MetricEntry::Kind::Counter;
        entry.counterValue = counter->value();
        snap.entries.push_back(std::move(entry));
    }
    for (const auto &[name, gauge] : gauges_) {
        MetricEntry entry;
        entry.name = name;
        entry.kind = MetricEntry::Kind::Gauge;
        entry.gaugeValue = gauge->value();
        snap.entries.push_back(std::move(entry));
    }
    for (const auto &[name, dist] : distributions_) {
        MetricEntry entry;
        entry.name = name;
        entry.kind = MetricEntry::Kind::Distribution;
        entry.dist = dist->stats();
        snap.entries.push_back(std::move(entry));
    }
    std::sort(snap.entries.begin(), snap.entries.end(),
              [](const MetricEntry &a, const MetricEntry &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
MetricsRegistry::mergeInto(MetricsRegistry &dst) const
{
    // Copy under our lock, then apply through dst's public interface
    // (which takes dst's own lock) — the locks are never held together,
    // so merge direction cannot deadlock.
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<std::pair<std::string, std::vector<double>>> dists;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, counter] : counters_)
            counters.emplace_back(name, counter->value());
        for (const auto &[name, gauge] : gauges_)
            gauges.emplace_back(name, gauge->value());
        for (const auto &[name, dist] : distributions_)
            dists.emplace_back(name, dist->samples());
    }
    for (const auto &[name, value] : counters)
        dst.counter(name).add(value);
    for (const auto &[name, value] : gauges) {
        const bool peak = name.size() >= 5 &&
                          name.compare(name.size() - 5, 5, "_peak") == 0;
        if (peak)
            dst.gauge(name).setMax(value);
        else
            dst.gauge(name).set(value);
    }
    for (const auto &[name, samples] : dists) {
        Distribution &dist = dst.distribution(name);
        for (double sample : samples)
            dist.record(sample);
    }
}

// --- clocks and thread ids ---------------------------------------------

uint64_t
telemetryNowUs()
{
    static const auto process_start = std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - process_start)
            .count());
}

uint32_t
TraceRecorder::currentThreadId()
{
#ifdef __linux__
    thread_local const uint32_t tid =
        static_cast<uint32_t>(::syscall(SYS_gettid));
#else
    thread_local const uint32_t tid = static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
#endif
    return tid;
}

// --- TraceRecorder ------------------------------------------------------

void
TraceRecorder::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

void
TraceRecorder::record(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceRecorder::flush()
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events.swap(events_);
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tsUs != b.tsUs)
                      return a.tsUs < b.tsUs;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.name < b.name;
              });
    return events;
}

void
TraceRecorder::writeChromeTrace(std::ostream &os)
{
#ifdef __linux__
    const uint32_t pid = static_cast<uint32_t>(::getpid());
#else
    const uint32_t pid = 1;
#endif
    std::vector<TraceEvent> events = flush();
    JsonWriter json(os);
    json.beginObject().member("displayTimeUnit", "ms").key("traceEvents");
    json.beginArray();
    for (const TraceEvent &event : events) {
        json.beginObject().member("name", event.name, "cat", "msq",
                                  "ph", "X", "ts", event.tsUs,
                                  "dur", event.durUs, "pid", pid,
                                  "tid", event.tid);
        if (!event.args.empty()) {
            json.key("args").beginObject();
            for (const TraceArg &arg : event.args) {
                json.key(arg.key);
                std::visit([&](const auto &v) { json.value(v); },
                           arg.value);
            }
            json.endObject();
        }
        json.endObject();
    }
    json.endArray().endObject();
}

// --- TraceSpan ----------------------------------------------------------

TraceSpan::TraceSpan(TraceRecorder &recorder, std::string name)
{
    if (!recorder.enabled())
        return;
    recorder_ = &recorder;
    name_ = std::move(name);
    startUs_ = telemetryNowUs();
}

TraceSpan &
TraceSpan::arg(std::string key, TraceArg::Value value)
{
    if (recorder_ != nullptr)
        args_.push_back({std::move(key), std::move(value)});
    return *this;
}

TraceSpan::~TraceSpan()
{
    if (recorder_ == nullptr)
        return;
    TraceEvent event;
    event.name = std::move(name_);
    event.args = std::move(args_);
    event.tsUs = startUs_;
    event.durUs = telemetryNowUs() - startUs_;
    event.tid = TraceRecorder::currentThreadId();
    recorder_->record(std::move(event));
}

// --- Telemetry (process-wide wiring) ------------------------------------

namespace {

std::atomic<bool> g_metrics_enabled{false};

std::string &
envMetricsPath()
{
    static std::string path;
    return path;
}

std::string &
envTracePath()
{
    static std::string path;
    return path;
}

/** Write @p path through @p write when it is set. An exit hook cannot
 * change the exit code, so a failed write is reported on stderr. */
void
flushEnvOutput(const std::string &path,
               const std::function<void(std::ostream &)> &write)
{
    if (!path.empty() && !writeJsonFile(path, write))
        std::cerr << "msq: cannot write '" << path << "'\n";
}

/** Write the MSQ_METRICS / MSQ_TRACE files (the atexit hook). */
void
flushEnvOutputs()
{
    flushEnvOutput(envMetricsPath(), [](std::ostream &os) {
        Telemetry::metrics().snapshot().writeJson(os);
    });
    flushEnvOutput(envTracePath(), [](std::ostream &os) {
        Telemetry::trace().writeChromeTrace(os);
    });
}

} // anonymous namespace

MetricsRegistry &
Telemetry::metrics()
{
    static MetricsRegistry registry;
    return registry;
}

TraceRecorder &
Telemetry::trace()
{
    static TraceRecorder recorder;
    return recorder;
}

bool
Telemetry::metricsEnabled()
{
    return g_metrics_enabled.load(std::memory_order_relaxed);
}

void
Telemetry::initFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        // Force the globals to outlive the atexit hook (constructed
        // before the hook registers, hence destroyed after it runs).
        (void)metrics();
        (void)trace();
        const char *metrics_path = std::getenv("MSQ_METRICS");
        if (metrics_path != nullptr && *metrics_path != '\0') {
            envMetricsPath() = metrics_path;
            g_metrics_enabled.store(true, std::memory_order_relaxed);
        }
        const char *trace_path = std::getenv("MSQ_TRACE");
        if (trace_path != nullptr && *trace_path != '\0') {
            envTracePath() = trace_path;
            trace().setEnabled(true);
        }
        if (!envMetricsPath().empty() || !envTracePath().empty())
            std::atexit(flushEnvOutputs);
    });
}

} // namespace msq
