/**
 * @file
 * Tests for the telemetry layer (support/telemetry.hh): metric
 * primitives, snapshot/JSON rendering, registry merging, the trace
 * recorder under multi-threaded fan-out, and the end-to-end
 * ToolflowResult::telemetry surface across every scaled workload.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/toolflow.hh"
#include "sched/coarse.hh"
#include "sched/lpfs.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

/** Parse @p json with the library parser; null (after a test
 * failure naming the error) when it is malformed. */
std::unique_ptr<JsonValue>
parsed(const std::string &json)
{
    std::string error;
    std::unique_ptr<JsonValue> doc = parseJson(json, error);
    EXPECT_TRUE(doc) << error << "\n" << json.substr(0, 400);
    return doc;
}

/** @p writable's JSON document as a string. */
template <class Writable>
std::string
jsonOf(const Writable &writable)
{
    std::ostringstream os;
    writable.writeJson(os);
    return os.str();
}

TEST(Telemetry, CounterAndGauge)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);

    Gauge gauge;
    gauge.set(-7);
    EXPECT_EQ(gauge.value(), -7);
    gauge.setMax(3);
    EXPECT_EQ(gauge.value(), 3);
    gauge.setMax(-100);
    EXPECT_EQ(gauge.value(), 3);
}

TEST(Telemetry, DistributionPercentiles)
{
    Distribution dist;
    // Record 100..1 (reverse order): percentiles sort internally.
    for (int v = 100; v >= 1; --v)
        dist.record(v);
    DistributionStats stats = dist.stats();
    EXPECT_EQ(stats.count, 100u);
    EXPECT_DOUBLE_EQ(stats.sum, 5050.0);
    EXPECT_DOUBLE_EQ(stats.min, 1.0);
    EXPECT_DOUBLE_EQ(stats.max, 100.0);
    EXPECT_DOUBLE_EQ(stats.p50, 50.0);
    EXPECT_DOUBLE_EQ(stats.p99, 99.0);
}

TEST(Telemetry, DistributionSingleSample)
{
    Distribution dist;
    dist.record(3.5);
    DistributionStats stats = dist.stats();
    EXPECT_EQ(stats.count, 1u);
    EXPECT_DOUBLE_EQ(stats.min, 3.5);
    EXPECT_DOUBLE_EQ(stats.max, 3.5);
    EXPECT_DOUBLE_EQ(stats.p50, 3.5);
    EXPECT_DOUBLE_EQ(stats.p99, 3.5);
}

TEST(Telemetry, JsonHelpers)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    // Shortest round-trippable form: parsing it back is exact.
    std::string third = jsonNumber(1.0 / 3.0);
    EXPECT_DOUBLE_EQ(std::stod(third), 1.0 / 3.0);
}

/** The reference spelling jsonNumber must reproduce: "%.*g" at the
 * fewest significant digits that strtod reads back exactly. */
std::string
referenceJsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

/**
 * jsonNumber prints every double byte for byte as the reference does:
 * signed zeros, the extremes, 1e21, every power of two (where the
 * round-trip interval is lopsided) and a seeded sweep of random bit
 * patterns (NaN and infinity included), denormals, fractions in
 * [0, 1000), thousandths and integers below 2^53.
 */
TEST(Telemetry, JsonNumberMatchesPrintfReference)
{
    std::vector<double> values = {0.0,     -0.0,     1e21,    -1e21,
                                  1e-7,    0.1,      1.0 / 3, DBL_MAX,
                                  DBL_MIN, DBL_TRUE_MIN};
    for (int e = -1074; e <= 1023; ++e) {
        values.push_back(std::ldexp(1.0, e));
        values.push_back(-std::ldexp(1.0, e));
    }
    SplitMix64 rng(39);
    auto from_bits = [](uint64_t bits) {
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    };
    for (int i = 0; i < 10000; ++i) {
        values.push_back(from_bits(rng.next()));
        values.push_back(from_bits(rng.next() & 0x800fffffffffffffull));
        values.push_back(rng.nextDouble() * 1000.0);
        values.push_back(static_cast<double>(rng.nextBelow(1000000)) /
                         1000.0);
        values.push_back(static_cast<double>(rng.next() >> 11));
    }
    for (double v : values)
        ASSERT_EQ(jsonNumber(v), referenceJsonNumber(v))
            << std::hexfloat << v;
}

TEST(Telemetry, RegistrySnapshotSortedAndStable)
{
    MetricsRegistry registry;
    registry.counter("zzz.last").add(1);
    registry.gauge("aaa.first").set(5);
    registry.distribution("mmm.middle_ms").record(1.0);
    Counter &again = registry.counter("zzz.last");
    again.add(1);

    MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    EXPECT_EQ(snap.entries[0].name, "aaa.first");
    EXPECT_EQ(snap.entries[1].name, "mmm.middle_ms");
    EXPECT_EQ(snap.entries[2].name, "zzz.last");
    EXPECT_EQ(snap.counter("zzz.last"), 2u);
    EXPECT_EQ(snap.gauge("aaa.first"), 5);
    EXPECT_EQ(snap.find("nope"), nullptr);

    std::unique_ptr<JsonValue> doc = parsed(jsonOf(snap));
    ASSERT_TRUE(doc);
    const std::vector<JsonValue> &metrics = doc->get("metrics").elements();
    ASSERT_EQ(metrics.size(), 3u);
    EXPECT_EQ(metrics[0].get("name").asString(), "aaa.first");
    EXPECT_EQ(metrics[0].get("type").asString(), "gauge");
    EXPECT_EQ(metrics[0].get("value").asNumber(), 5);
    EXPECT_EQ(metrics[1].get("type").asString(), "distribution");
    EXPECT_EQ(metrics[1].get("sum").asNumber(), 1.0);
    EXPECT_EQ(metrics[2].get("name").asString(), "zzz.last");
    EXPECT_EQ(metrics[2].get("value").asNumber(), 2);
}

TEST(Telemetry, RegistryMerge)
{
    MetricsRegistry src;
    MetricsRegistry dst;
    src.counter("c").add(5);
    dst.counter("c").add(2);
    src.gauge("g").set(10);
    dst.gauge("g").set(99);
    src.gauge("occupancy_peak").set(4);
    dst.gauge("occupancy_peak").set(7);
    src.distribution("d").record(1.0);
    dst.distribution("d").record(2.0);

    src.mergeInto(dst);
    MetricsSnapshot snap = dst.snapshot();
    EXPECT_EQ(snap.counter("c"), 7u);
    // Plain gauges take the source's last value; "_peak" gauges merge
    // via max so a lower later run cannot erase a higher peak.
    EXPECT_EQ(snap.gauge("g"), 10);
    EXPECT_EQ(snap.gauge("occupancy_peak"), 7);
    EXPECT_EQ(snap.find("d")->dist.count, 2u);
}

TEST(Telemetry, CountersAreThreadSafe)
{
    MetricsRegistry registry;
    Counter &counter = registry.counter("n");
    ThreadPool pool(4);
    pool.parallelFor(1000, [&](uint64_t) { counter.add(1); });
    EXPECT_EQ(counter.value(), 1000u);
}

TEST(Telemetry, TraceRecorderDisabledSpanIsInactive)
{
    TraceRecorder recorder;
    EXPECT_FALSE(recorder.enabled());
    {
        TraceSpan span(recorder, "ignored");
        EXPECT_FALSE(span.active());
    }
    EXPECT_TRUE(recorder.flush().empty());
}

TEST(Telemetry, TraceRecorderMultiThreaded)
{
    TraceRecorder recorder;
    recorder.setEnabled(true);
    ThreadPool pool(4);
    pool.parallelFor(64, [&](uint64_t i) {
        TraceSpan span(recorder, "task" + std::to_string(i));
        span.arg("index", i);
    });
    {
        TraceSpan outer(recorder, "outer");
        EXPECT_TRUE(outer.active());
    }
    recorder.setEnabled(false);

    std::vector<TraceEvent> events = recorder.flush();
    ASSERT_EQ(events.size(), 65u);
    std::set<std::string> names;
    std::set<uint32_t> tids;
    for (size_t i = 0; i < events.size(); ++i) {
        names.insert(events[i].name);
        tids.insert(events[i].tid);
        if (i > 0) {
            EXPECT_GE(events[i].tsUs, events[i - 1].tsUs);
        }
    }
    EXPECT_EQ(names.size(), 65u);
    EXPECT_GE(tids.size(), 1u);
    // Flushed means drained.
    EXPECT_TRUE(recorder.flush().empty());
}

TEST(Telemetry, ChromeTraceJsonShape)
{
    TraceRecorder recorder;
    recorder.setEnabled(true);
    {
        TraceSpan span(recorder, "phase \"one\"");
        span.arg("gates", 12u);
    }
    { TraceSpan span(recorder, "phase-two"); }
    recorder.setEnabled(false);

    std::ostringstream os;
    recorder.writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_TRUE(parsed(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": "), std::string::npos);
    EXPECT_NE(json.find("\"tid\": "), std::string::npos);
    EXPECT_NE(json.find("\"gates\": 12"), std::string::npos);
    EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos);
}

TEST(Telemetry, ChromeTraceEscapesModuleNames)
{
    // The QASM reader takes any non-space token as a module name, so a
    // name can carry quotes and backslashes into the span args.
    const std::string name = "le\"af\\x";
    Program prog;
    ModuleId leaf = prog.addModule(name);
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        mod.addGate(GateKind::H, {q});
        mod.addGate(GateKind::T, {q});
    }
    ModuleId top = prog.addModule("main");
    {
        Module &mod = prog.module(top);
        QubitId a = mod.addLocal("a");
        mod.addCall(leaf, {a});
        mod.addCall(leaf, {a});
    }
    prog.setEntry(top);

    TraceRecorder &trace = Telemetry::trace();
    trace.flush();
    trace.setEnabled(true);
    LpfsScheduler scheduler;
    CoarseScheduler(MultiSimdArch(2), scheduler, CommMode::Global)
        .schedule(prog);
    trace.setEnabled(false);

    std::ostringstream os;
    trace.writeChromeTrace(os);
    std::unique_ptr<JsonValue> doc = parsed(os.str());
    ASSERT_TRUE(doc);
    size_t leaf_spans = 0;
    for (const JsonValue &event : doc->get("traceEvents").elements()) {
        if (event.get("name").asString() != "leaf:" + name)
            continue;
        ++leaf_spans;
        EXPECT_EQ(event.get("args").get("module").asString(), name);
        EXPECT_EQ(event.get("args").get("gates").asNumber(), 2);
        EXPECT_EQ(event.get("args").get("cache").asString(), "off");
    }
    EXPECT_GT(leaf_spans, 0u);
}

/** The keys any toolflow run must surface. */
const char *const kRequiredMetrics[] = {
    "toolflow.total_gates",      "toolflow.critical_path",
    "toolflow.qubits",           "toolflow.scheduled_cycles",
    "toolflow.runs",             "sched.leaf.instances",
    "sched.leaf.gates",          "sched.leaf.cycles",
    "sched.width_sweep_points",  "comm.teleport_moves",
    "comm.epr_pairs_consumed",   "comm.active_region_steps",
    "comm.region_occupancy_peak", "passes.decompose-toffoli.runs",
    "passes.flatten.runs",       "sched.total_ms",
};

TEST(Telemetry, ToolflowTelemetryAcrossAllWorkloads)
{
    for (const auto &spec : workloads::scaledParams()) {
        SCOPED_TRACE(spec.shortName);
        Program prog = spec.build();
        ToolflowConfig config;
        config.arch = MultiSimdArch(4);
        config.rotations = Toolflow::rotationPresetFor(spec.shortName);
        ToolflowResult result = Toolflow(config).run(prog);

        const MetricsSnapshot &snap = result.telemetry;
        ASSERT_FALSE(snap.entries.empty());
        for (const char *name : kRequiredMetrics)
            EXPECT_NE(snap.find(name), nullptr) << name;
        EXPECT_EQ(
            static_cast<uint64_t>(snap.gauge("toolflow.total_gates")),
            result.totalGates);
        EXPECT_EQ(static_cast<uint64_t>(
                      snap.gauge("toolflow.scheduled_cycles")),
                  result.scheduledCycles);

        EXPECT_TRUE(parsed(jsonOf(snap))) << spec.shortName;
    }
}

TEST(Telemetry, ToolflowSnapshotKeyOrderIsStable)
{
    auto run = [] {
        auto spec = workloads::findWorkload(workloads::scaledParams(),
                                            "grovers");
        Program prog = spec.build();
        ToolflowConfig config;
        config.arch = MultiSimdArch(4);
        return Toolflow(config).run(prog);
    };
    ToolflowResult first = run();
    ToolflowResult second = run();
    ASSERT_EQ(first.telemetry.entries.size(),
              second.telemetry.entries.size());
    for (size_t i = 0; i < first.telemetry.entries.size(); ++i) {
        EXPECT_EQ(first.telemetry.entries[i].name,
                  second.telemetry.entries[i].name);
    }
}

TEST(Telemetry, ExternalRegistryAccumulatesAcrossRuns)
{
    MetricsRegistry shared;
    auto run = [&] {
        auto spec =
            workloads::findWorkload(workloads::scaledParams(), "tfp");
        Program prog = spec.build();
        ToolflowConfig config;
        config.arch = MultiSimdArch(4);
        config.metrics = &shared;
        return Toolflow(config).run(prog);
    };
    ToolflowResult first = run();
    ToolflowResult second = run();
    EXPECT_EQ(first.telemetry.counter("toolflow.runs"), 1u);
    EXPECT_EQ(second.telemetry.counter("toolflow.runs"), 2u);
    EXPECT_EQ(second.telemetry.counter("sched.leaf.instances"),
              2 * first.telemetry.counter("sched.leaf.instances"));
}

} // anonymous namespace
