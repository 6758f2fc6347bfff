/**
 * @file
 * Tests for the serving layer (core/serve.hh) and its JSON substrate
 * (support/json.hh): request parsing and error responses, schedule
 * hashing, replay determinism, batch-vs-sequential equivalence, and the
 * warm-start contract — a daemon restarted onto a persisted cache
 * answers bit-identically to the cold process that wrote it, at leaf
 * hit rate 1.0.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/bounds.hh"
#include "core/request.hh"
#include "core/serve.hh"
#include "core/toolflow.hh"
#include "support/json.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

// ---------------------------------------------------------------------
// support/json.hh
// ---------------------------------------------------------------------

std::unique_ptr<JsonValue>
parseOk(const std::string &text)
{
    std::string error;
    auto value = parseJson(text, error);
    EXPECT_NE(value, nullptr) << text << ": " << error;
    return value;
}

TEST(JsonParser, Scalars)
{
    EXPECT_EQ(parseOk("null")->kind(), JsonValue::Kind::Null);
    EXPECT_EQ(parseOk("true")->asBool(), true);
    EXPECT_EQ(parseOk("false")->asBool(), false);
    EXPECT_EQ(parseOk("42")->asUnsigned(), 42u);
    EXPECT_EQ(parseOk("-3")->asNumber(), -3.0);
    EXPECT_EQ(parseOk("2.5e2")->asNumber(), 250.0);
    EXPECT_EQ(parseOk("\"hi\"")->asString(), "hi");
}

TEST(JsonParser, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\n\\t\\\"b\\\\\"")->asString(),
              "a\n\t\"b\\");
    EXPECT_EQ(parseOk("\"\\u0041\\u00e9\"")->asString(), "A\xc3\xa9");
}

TEST(JsonParser, Containers)
{
    auto doc = parseOk(R"({"a": [1, 2, 3], "b": {"c": "d"}, "e": null})");
    ASSERT_TRUE(doc->isObject());
    EXPECT_TRUE(doc->has("a"));
    EXPECT_FALSE(doc->has("missing"));
    EXPECT_EQ(doc->get("missing").kind(), JsonValue::Kind::Null);
    ASSERT_EQ(doc->get("a").elements().size(), 3u);
    EXPECT_EQ(doc->get("a").elements()[2].asUnsigned(), 3u);
    EXPECT_EQ(doc->get("b").get("c").asString(), "d");
    EXPECT_EQ(doc->get("e").kind(), JsonValue::Kind::Null);
}

TEST(JsonParser, AsUnsignedFallback)
{
    EXPECT_EQ(parseOk("\"nan\"")->asUnsigned(7), 7u);
    EXPECT_EQ(parseOk("{}")->get("missing").asUnsigned(9), 9u);
    EXPECT_EQ(JsonValue::makeNumber(42).asUnsigned(9), 9u);
}

TEST(JsonParser, AsUnsignedIsExact)
{
    // The token is read, not the double: past 2^53 nothing rounds, and
    // a fraction, an exponent, a sign or 2^64 is the fallback, never a
    // truncated or wrapped count.
    EXPECT_EQ(parseOk("9007199254740993")->asUnsigned(),
              9007199254740993u);
    EXPECT_EQ(parseOk("18446744073709551615")->asUnsigned(), UINT64_MAX);
    for (const char *text : {"2.9", "1e3", "-3", "18446744073709551616"})
        EXPECT_EQ(parseOk(text)->asUnsigned(7), 7u) << text;
}

TEST(JsonParser, NumberKeepsItsToken)
{
    EXPECT_EQ(parseOk("4294967297")->numberText(), "4294967297");
    EXPECT_EQ(parseOk("-2.5e2")->numberText(), "-2.5e2");
    // Only numbers carry a token, and only strings a string.
    EXPECT_EQ(parseOk("\"42\"")->numberText(), "");
    EXPECT_EQ(parseOk("42")->asString(), "");
    EXPECT_EQ(JsonValue::makeNumber(42).numberText(), "");
}

TEST(JsonParser, Rejections)
{
    std::string error;
    EXPECT_EQ(parseJson("", error), nullptr);
    EXPECT_EQ(parseJson("{", error), nullptr);
    EXPECT_EQ(parseJson("{\"a\": }", error), nullptr);
    EXPECT_EQ(parseJson("\"unterminated", error), nullptr);
    EXPECT_EQ(parseJson("[1, 2,]", error), nullptr);
    EXPECT_EQ(parseJson("true false", error), nullptr); // trailing junk
    EXPECT_EQ(parseJson("tru", error), nullptr);
    EXPECT_FALSE(error.empty());
}

/** The document @p write emits, as a string. */
std::string
written(const std::function<void(JsonWriter &)> &write)
{
    std::ostringstream os;
    JsonWriter json(os);
    write(json);
    return os.str();
}

TEST(JsonWriter, StringsRoundTrip)
{
    using namespace std::string_literals;
    const std::string texts[] = {
        "",
        "plain",
        "quote \" and backslash \\ and \\\"",
        "tab\tnewline\ncr\r"s,
        "nul \0 bell \a esc \x1b unit \x1f del \x7f"s,
        "UTF-8: \xc3\xa9 \xe2\x88\x80 \xf0\x9f\x8e\xb2",
    };
    for (const std::string &text : texts) {
        // As a value and as a key alike.
        const std::string doc = written([&](JsonWriter &json) {
            json.beginObject().member(text, text).endObject();
        });
        EXPECT_EQ(doc.find('\n'), std::string::npos) << doc;
        auto value = parseOk(doc);
        ASSERT_TRUE(value);
        EXPECT_TRUE(value->has(text)) << doc;
        EXPECT_EQ(value->get(text).asString(), text) << doc;
    }
}

TEST(JsonWriter, IntegersAreExact)
{
    const Count past64 = Count(UINT64_MAX) + Count(2); // 2^64 + 1
    const std::string doc = written([&](JsonWriter &json) {
        json.beginArray()
            .value(past64)
            .value(Count::max())
            .value(UINT64_MAX)
            .value(INT64_MIN)
            .value(0u)
            .endArray();
    });
    EXPECT_EQ(doc, "[18446744073709551617, "
                   "340282366920938463463374607431768211455, "
                   "18446744073709551615, -9223372036854775808, 0]");
    auto value = parseOk(doc);
    ASSERT_TRUE(value);
    const std::vector<JsonValue> &numbers = value->elements();
    ASSERT_EQ(numbers.size(), 5u);
    EXPECT_EQ(numbers[0].numberText(), past64.str());
    EXPECT_EQ(numbers[1].numberText(), Count::max().str());
    EXPECT_EQ(numbers[2].asUnsigned(), UINT64_MAX);
    EXPECT_EQ(numbers[3].asNumber(), static_cast<double>(INT64_MIN));
}

TEST(JsonWriter, DoublesAreShortestAndNonFiniteIsZero)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {0.1, 1.0 / 3.0, 4.666577575838567, 1e300,
                             -2.5};
    for (double v : values) {
        auto value = parseOk(written([&](JsonWriter &json) {
            json.value(v);
        }));
        ASSERT_TRUE(value);
        EXPECT_EQ(value->asNumber(), v);
        EXPECT_EQ(value->numberText(), jsonNumber(v));
    }
    for (double v : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
        const std::string doc = written([&](JsonWriter &json) {
            json.beginObject().member("x", v).endObject();
        });
        EXPECT_EQ(doc, "{\"x\": 0}");
        auto value = parseOk(doc);
        ASSERT_TRUE(value);
        EXPECT_EQ(value->get("x").asNumber(), 0.0);
    }
}

TEST(JsonWriter, MembersKeepTheirOrder)
{
    // One member() call with several pairs writes them in call order.
    const std::string doc = written([](JsonWriter &json) {
        json.beginObject()
            .member("zeta", 1, "alpha", true)
            .member("mid", "m")
            .key("none")
            .null()
            .endObject();
    });
    EXPECT_EQ(doc, R"({"zeta": 1, "alpha": true, "mid": "m", "none": null})");
    auto value = parseOk(doc);
    ASSERT_TRUE(value);
    EXPECT_EQ(value->get("zeta").asUnsigned(), 1u);
    EXPECT_TRUE(value->get("alpha").asBool());
    EXPECT_EQ(value->get("mid").asString(), "m");
    EXPECT_EQ(value->get("none").kind(), JsonValue::Kind::Null);
}

TEST(JsonWriter, ContainerElementsStartTheirOwnLine)
{
    // Scalars stay inline; each object or array element of an array
    // opens a line indented two spaces per open container, and its
    // array closes on a line of its own.
    const std::string doc = written([](JsonWriter &json) {
        json.beginObject().key("flat").beginArray().value(1).value(2);
        json.endArray().key("rows").beginArray();
        json.beginObject().member("x", 1).key("deep").beginArray();
        json.beginArray().endArray().endArray().endObject();
        json.beginObject().key("e").beginObject().endObject().endObject();
        json.endArray().key("empty").beginArray().endArray().endObject();
    });
    EXPECT_EQ(doc, "{\"flat\": [1, 2], \"rows\": [\n"
                   "    {\"x\": 1, \"deep\": [\n"
                   "        []\n"
                   "      ]},\n"
                   "    {\"e\": {}}\n"
                   "  ], \"empty\": []}");
    EXPECT_TRUE(parseOk(doc));
}

// ---------------------------------------------------------------------
// ServeEngine
// ---------------------------------------------------------------------

std::unique_ptr<JsonValue>
serveOne(ServeEngine &engine, const std::string &line)
{
    std::string error;
    auto response = parseJson(engine.handleLine(line), error);
    EXPECT_NE(response, nullptr) << error;
    return response;
}

TEST(Serve, ErrorResponses)
{
    ServeEngine engine(ServeOptions{});
    struct Case
    {
        const char *line;
        const char *needle; ///< must appear in the error message
    };
    const Case cases[] = {
        {"not json at all", "expected"},
        {"[1, 2]", "object"},
        {"{}", "workload"},
        {R"({"workload": "grovers", "source": "module main() {}"})",
         "exactly one"},
        {R"({"workload": "nope"})", "unknown workload"},
        {R"({"workload": "grovers", "params": "huge"})",
         "unknown params"},
        {R"({"workload": "grovers", "scheduler": "magic"})",
         "unknown scheduler"},
        {R"({"workload": "grovers", "comm_mode": "warp"})",
         "unknown comm_mode"},
        {R"({"workload": "grovers", "k": 0})", "k must be"},
        // Numeric fields are read exactly: none wraps, truncates or
        // overflows into a different machine.
        {R"({"workload": "tfp", "params": "tiny", "k": 4294967297})",
         "k must be an integer in [1, 1048576]"},
        {R"({"workload": "tfp", "params": "tiny", "k": 2.9})",
         "k must be"},
        {R"({"workload": "tfp", "params": "tiny", "k": 1e30})",
         "k must be"},
        {R"({"workload": "tfp", "params": "tiny", "k": "4"})",
         "k must be"},
        {R"({"workload": "tfp", "params": "tiny", "scale": 1e30})",
         "scale must be"},
        {R"({"workload": "tfp", "params": "tiny", "scale": 0})",
         "scale must be"},
        {R"({"workload": "tfp", "params": "tiny", "d": -1})",
         "d must be"},
        {R"({"workload": "tfp", "params": "tiny", "d": 18446744073709551616})",
         "d must be"},
        {R"({"workload": "tfp", "params": "tiny", "local_mem": 1.5})",
         "local_mem must be"},
        {R"({"workload": "tfp", "params": "tiny", "epr": 0})",
         "epr must be"},
    };
    for (const Case &c : cases) {
        auto response = serveOne(engine, c.line);
        EXPECT_FALSE(response->get("ok").asBool()) << c.line;
        EXPECT_NE(response->get("error").asString().find(c.needle),
                  std::string::npos)
            << c.line << " -> " << response->get("error").asString();
    }
}

TEST(Serve, ResponsesAreOneLine)
{
    // NDJSON: whatever newlines a request's id, names or source carry,
    // the response, error or not, is one line.
    ServeEngine engine(ServeOptions{});
    const std::pair<const char *, bool> cases[] = {
        {R"({"id": "two\nlines", "workload": "no\npe"})", false},
        {R"({"id": 1, "source": "module main() {\n qbit q;\n H(q);\n"})",
         false},
        {R"({"id": "a\nb", "workload": "tfp", "params": "tiny"})", true},
    };
    for (const auto &[line, ok] : cases) {
        const std::string response = engine.handleLine(line);
        EXPECT_EQ(response.find('\n'), std::string::npos) << response;
        auto doc = parseOk(response);
        ASSERT_TRUE(doc);
        EXPECT_EQ(doc->get("ok").asBool(), ok) << response;
    }
    EXPECT_EQ(parseOk(engine.handleLine(cases[0].first))
                  ->get("id")
                  .asString(),
              "two\nlines");
}

TEST(Serve, IdEchoedVerbatim)
{
    ServeEngine engine(ServeOptions{});
    auto str = serveOne(engine, R"({"id": "req-7", "bad": true})");
    EXPECT_EQ(str->get("id").asString(), "req-7");
    auto num = serveOne(engine, R"({"id": 31337})");
    EXPECT_EQ(num->get("id").asUnsigned(), 31337u);
    const std::string none = engine.handleLine(R"({"bad": true})");
    EXPECT_EQ(none.rfind("{\"id\": null,", 0), 0u);

    // Numeric ids come back as written, not in shortest %g form
    // ("1e+01"); integers up to 2^53 print in full.
    const std::pair<const char *, const char *> ids[] = {
        {"10", "10"},
        {"100", "100"},
        {"-5", "-5"},
        {"1.5", "1.5"},
        {"1e2", "100"},
        {"9007199254740992", "9007199254740992"},
        {"-9007199254740992", "-9007199254740992"},
    };
    for (const auto &[sent, echoed] : ids) {
        const std::string response =
            engine.handleLine(std::string("{\"id\": ") + sent + "}");
        EXPECT_EQ(response.rfind(std::string("{\"id\": ") + echoed + ",",
                                 0),
                  0u)
            << sent << " -> " << response;
    }
}

TEST(Serve, WorkloadRequest)
{
    ServeEngine engine(ServeOptions{});
    auto response = serveOne(
        engine,
        R"({"id": 1, "workload": "grovers", "params": "tiny", "k": 4})");
    ASSERT_TRUE(response->get("ok").asBool())
        << response->get("error").asString();
    EXPECT_EQ(response->get("workload").asString(), "grovers");
    EXPECT_GT(response->get("makespan").asUnsigned(), 0u);
    EXPECT_GT(response->get("total_gates").asUnsigned(), 0u);
    EXPECT_GT(response->get("qubits").asUnsigned(), 0u);
    EXPECT_EQ(response->get("schedule_hash").asString().size(), 16u);
    EXPECT_GE(response->get("gap").asNumber(), 1.0);
    EXPECT_GT(response->get("cache").get("misses").asUnsigned(), 0u);
    EXPECT_EQ(response->get("cache").get("loads").asUnsigned(), 0u);
}

TEST(Serve, ScaffoldSourceRequest)
{
    ServeEngine engine(ServeOptions{});
    auto response = serveOne(
        engine,
        R"({"source": "module main() { qbit q[2]; H(q[0]); CNOT(q[0], q[1]); }", "k": 2})");
    ASSERT_TRUE(response->get("ok").asBool())
        << response->get("error").asString();
    EXPECT_EQ(response->get("workload").asString(), "source");
    EXPECT_EQ(response->get("qubits").asUnsigned(), 2u);
    EXPECT_EQ(response->get("total_gates").asUnsigned(), 2u);
    EXPECT_GT(response->get("makespan").asUnsigned(), 0u);
}

/** The unsigned value of top-level field @p key in raw response
 * @p text (JSON numbers are doubles, which cannot hold 2^64-1). */
uint64_t
rawUnsigned(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " in " << text;
    if (at == std::string::npos)
        return 0;
    return std::stoull(text.substr(at + needle.size()));
}

TEST(Serve, SaturatedCriticalPathAndBoundStayBelowMakespan)
{
    // leaf repeated 2^63 times: every path through the call clips at
    // 2^64-1 instead of wrapping past it, while the gate total is an
    // exact count, 1 + 2 * 2^63.
    ServeEngine engine(ServeOptions{});
    const std::string response = engine.handleLine(
        R"({"source": "module leaf(qbit q) { H(q); T(q); } )"
        R"(module main() { qbit q; X(q); )"
        R"(repeat 9223372036854775808 leaf(q); }", "k": 2})");
    ASSERT_NE(response.find("\"ok\": true"), std::string::npos) << response;
    const uint64_t max = std::numeric_limits<uint64_t>::max();
    EXPECT_EQ(rawUnsigned(response, "critical_path"), max);
    EXPECT_NE(response.find("\"total_gates\": 18446744073709551617,"),
              std::string::npos)
        << response;
    EXPECT_LE(rawUnsigned(response, "lower_bound"),
              rawUnsigned(response, "makespan"));
}

TEST(Serve, ReplayHitsCacheAndIsDeterministic)
{
    ServeEngine engine(ServeOptions{});
    const std::string line =
        R"({"workload": "bwt", "params": "tiny", "k": 4})";
    auto first = serveOne(engine, line);
    auto second = serveOne(engine, line);
    ASSERT_TRUE(first->get("ok").asBool());
    ASSERT_TRUE(second->get("ok").asBool());
    EXPECT_EQ(first->get("schedule_hash").asString(),
              second->get("schedule_hash").asString());
    EXPECT_EQ(first->get("makespan").asUnsigned(),
              second->get("makespan").asUnsigned());
    EXPECT_GT(second->get("cache").get("hits").asUnsigned(), 0u);
    EXPECT_EQ(second->get("telemetry").get("leaf_cache_misses")
                  .asUnsigned(),
              0u);
    EXPECT_EQ(engine.requestsServed(), 2u);
}

// The comm mode follows the final machine: scratchpads that a topology
// spec builds are used as ones that "local_mem" builds.
TEST(Serve, TopologyLocalMemDerivesLocalMode)
{
    ServeEngine engine(ServeOptions{});
    const std::string base = R"({"workload": "grovers", "params": "tiny", )"
                             R"("topology": "cores=2,k=2,local-mem=4")";
    std::vector<std::unique_ptr<JsonValue>> responses;
    for (const char *extra :
         {"", R"(, "local_mem": 4)", R"(, "comm_mode": "local")"})
        responses.push_back(serveOne(engine, base + extra + "}"));
    for (const auto &response : responses) {
        ASSERT_TRUE(response->get("ok").asBool())
            << response->get("error").asString();
        EXPECT_EQ(response->get("makespan").asUnsigned(),
                  responses[0]->get("makespan").asUnsigned());
        EXPECT_EQ(response->get("schedule_hash").asString(),
                  responses[0]->get("schedule_hash").asString());
    }
}

TEST(Serve, BatchMatchesSequential)
{
    const char *workloads[] = {"grovers", "bwt", "cn"};
    std::vector<std::string> lines;
    for (int rep = 0; rep < 2; ++rep)
        for (const char *name : workloads)
            lines.push_back(csprintf(
                "{\"id\": \"%s-%d\", \"workload\": \"%s\", "
                "\"params\": \"tiny\", \"k\": 4}",
                name, rep, name));

    ServeOptions batchOptions;
    batchOptions.numThreads = 4;
    ServeEngine batchEngine(batchOptions);
    std::vector<std::string> batched = batchEngine.handleBatch(lines);
    ASSERT_EQ(batched.size(), lines.size());

    ServeEngine seqEngine(ServeOptions{});
    for (size_t i = 0; i < lines.size(); ++i) {
        auto parallel = parseOk(batched[i]);
        auto sequential = serveOne(seqEngine, lines[i]);
        ASSERT_TRUE(parallel->get("ok").asBool()) << batched[i];
        EXPECT_EQ(parallel->get("id").asString(),
                  sequential->get("id").asString());
        EXPECT_EQ(parallel->get("schedule_hash").asString(),
                  sequential->get("schedule_hash").asString())
            << lines[i];
        EXPECT_EQ(parallel->get("makespan").asUnsigned(),
                  sequential->get("makespan").asUnsigned());
    }
    // Same distinct leaves -> same hit/miss totals, any thread count.
    EXPECT_EQ(batchEngine.cache().hits(), seqEngine.cache().hits());
    EXPECT_EQ(batchEngine.cache().misses(),
              seqEngine.cache().misses());
}

TEST(Serve, WarmStartIsBitIdenticalAtHitRateOne)
{
    const std::string path =
        testing::TempDir() + "serve_warmstart.msqc";
    std::remove(path.c_str());
    const char *workloads[] = {"grovers", "bwt", "gse"};

    ServeOptions options;
    options.cachePath = path;
    ServeEngine cold(options);
    EXPECT_EQ(cold.loadCache(), 0u); // missing file: silent cold start
    EXPECT_EQ(cold.diags().numWarnings(), 0u);

    // The lower bound a from-scratch analysis puts on the lowered
    // program; the daemon takes its leaf bounds from the schedules it
    // compiled or loaded instead, and must agree.
    auto fromScratchBound = [](const char *name) {
        Program prog = Toolflow::lowerWorkload(
            workloads::findWorkload(workloads::tinyParams(), name));
        return MakespanBoundAnalysis(prog, MultiSimdArch(4),
                                     CommMode::Global)
            .programLowerBound();
    };

    struct ColdResult
    {
        std::string hash;
        uint64_t makespan;
        uint64_t lowerBound;
    };
    std::vector<ColdResult> coldResults;
    for (const char *name : workloads) {
        auto response = serveOne(
            cold, csprintf("{\"workload\": \"%s\", \"params\": "
                           "\"tiny\", \"k\": 4}",
                           name));
        ASSERT_TRUE(response->get("ok").asBool());
        coldResults.push_back({response->get("schedule_hash").asString(),
                               response->get("makespan").asUnsigned(),
                               response->get("lower_bound").asUnsigned()});
        EXPECT_GT(coldResults.back().lowerBound, 0u) << name;
        EXPECT_EQ(coldResults.back().lowerBound, fromScratchBound(name))
            << name;
    }
    ASSERT_NE(cold.saveCache(), SIZE_MAX);

    ServeEngine warm(options);
    EXPECT_EQ(warm.loadCache(), cold.cache().size());
    EXPECT_EQ(warm.diags().numWarnings(), 0u);
    for (size_t i = 0; i < std::size(workloads); ++i) {
        auto response = serveOne(
            warm, csprintf("{\"workload\": \"%s\", \"params\": "
                           "\"tiny\", \"k\": 4}",
                           workloads[i]));
        ASSERT_TRUE(response->get("ok").asBool());
        EXPECT_EQ(response->get("schedule_hash").asString(),
                  coldResults[i].hash)
            << workloads[i];
        EXPECT_EQ(response->get("makespan").asUnsigned(),
                  coldResults[i].makespan);
        EXPECT_EQ(response->get("lower_bound").asUnsigned(),
                  coldResults[i].lowerBound);
    }
    // The warm-start contract: zero recomputes, every lookup a hit.
    EXPECT_EQ(warm.cache().misses(), 0u);
    EXPECT_EQ(warm.cache().hitRate(), 1.0);
    EXPECT_EQ(warm.cache().loads(), cold.cache().size());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// core/request.hh: one reader behind the flags and the NDJSON fields
// ---------------------------------------------------------------------

/** Every request key, as a tool passes the ones it exposes. */
constexpr std::string_view allKeys[] = {"k", "d", "local_mem", "epr",
                                        "topology", "scheduler",
                                        "comm_mode", "params", "scale"};

/** `--key=token` through the argv adapter, then into a config. */
std::optional<ToolflowConfig>
viaArgv(const std::string &key, const std::string &token)
{
    std::string name = key;
    std::replace(name.begin(), name.end(), '_', '-');
    CompileRequest req;
    const FlagRead read =
        readRequestFlag(req, "--" + name + "=" + token, allKeys);
    EXPECT_NE(read, FlagRead::NotRequestFlag) << name;
    std::string error;
    if (read != FlagRead::Set)
        return std::nullopt;
    return toolflowConfig(req, error);
}

/** {"key": token} through the NDJSON adapter, then into a config. */
std::optional<ToolflowConfig>
viaJson(const std::string &key, const std::string &json_token)
{
    std::string error;
    auto object = parseJson("{\"" + key + "\": " + json_token + "}", error);
    EXPECT_NE(object, nullptr) << error;
    CompileRequest req;
    if (!object || !readRequestJson(req, *object, error))
        return std::nullopt;
    return toolflowConfig(req, error);
}

TEST(Request, FlagsAndFieldsShareOneVerdictPerKey)
{
    struct KeyCase
    {
        const char *key;
        bool count; ///< NDJSON takes a number, not a string
        const char *accepted;
        std::vector<const char *> rejected;
    };
    const KeyCase cases[] = {
        {"k", true, "4", {"0", "1048577", "2.9", "-1"}},
        {"d", true, "8", {"18446744073709551616", "2.9", "-1"}},
        {"local_mem", true, "2", {"18446744073709551616", "2.9", "-1"}},
        {"epr", true, "1", {"0", "18446744073709551616", "2.9", "-1"}},
        {"scale", true, "1000", {"0", "18446744073709551615", "2.9", "-1"}},
        {"scheduler", false, "sequential", {"greedy", "RCP", ""}},
        {"comm_mode", false, "local", {"warp", "global+local"}},
        {"params", false, "tiny", {"huge"}},
        {"topology",
         false,
         "cores=2,k=2",
         {"cores=0", "cores=4,k=2,shape=single"}},
    };
    ASSERT_EQ(std::size(cases), std::size(allKeys));
    for (const KeyCase &c : cases) {
        auto json = [&](const std::string &token) {
            return c.count ? token : "\"" + token + "\"";
        };
        EXPECT_TRUE(viaArgv(c.key, c.accepted)) << c.key;
        EXPECT_TRUE(viaJson(c.key, json(c.accepted))) << c.key;
        for (const char *token : c.rejected) {
            EXPECT_FALSE(viaArgv(c.key, token)) << c.key << token;
            EXPECT_FALSE(viaJson(c.key, json(token))) << c.key << token;
        }
    }
    // A count is never read from a string, nor a name from a number.
    EXPECT_FALSE(viaJson("k", "\"4\""));
    EXPECT_FALSE(viaJson("scheduler", "1"));

    // d = 0 is an unbounded width on both surfaces, as --d=inf is.
    const std::string unboundedWidth =
        viaArgv("d", "inf").value().arch.fingerprint();
    EXPECT_EQ(viaArgv("d", "0").value().arch.fingerprint(), unboundedWidth);
    EXPECT_EQ(viaJson("d", "0").value().arch.fingerprint(), unboundedWidth);
    EXPECT_NE(viaJson("d", "8").value().arch.fingerprint(), unboundedWidth);

    // A tool reads only the keys it exposes.
    CompileRequest req;
    const std::string_view served[] = {"k", "epr"};
    EXPECT_EQ(readRequestFlag(req, "--scale=2", served),
              FlagRead::NotRequestFlag);
    EXPECT_EQ(readRequestFlag(req, "--threads=2", allKeys),
              FlagRead::NotRequestFlag);
    EXPECT_EQ(readRequestFlag(req, "--epr", allKeys),
              FlagRead::NotRequestFlag);
    EXPECT_EQ(readRequestFlag(req, "--local_mem=2", allKeys),
              FlagRead::NotRequestFlag);
    EXPECT_EQ(readRequestFlag(req, "--epr=2", served), FlagRead::Set);
    EXPECT_EQ(req.epr, 2u);
}

} // namespace
