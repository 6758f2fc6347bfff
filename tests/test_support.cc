/**
 * @file
 * Unit tests for the support library: logging, strings, rng, stats.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/count.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"

namespace {

using namespace msq;

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input"), FatalError);
}

TEST(Logging, PanicMessagePreserved)
{
    try {
        panic("invariant violated");
        FAIL() << "panic returned";
    } catch (const PanicError &err) {
        EXPECT_NE(std::string(err.what()).find("invariant violated"),
                  std::string::npos);
    }
}

TEST(Hash, FoldMatchesBytewiseReference)
{
    // Reference: every value folded as its eight little-endian bytes,
    // one FNV-1a step per byte, zero bytes included.
    auto reference = [](uint64_t hash, uint64_t v) {
        for (int i = 0; i < 8; ++i)
            hash = (hash ^ ((v >> (8 * i)) & 0xff)) * fnv1aPrime;
        return hash;
    };
    std::vector<uint64_t> values = {
        0,           1,
        0xff,        0x100,
        (uint64_t{1} << 56) - 1, uint64_t{1} << 56,
        0xffffffff,  std::numeric_limits<uint64_t>::max()};
    SplitMix64 rng(2015);
    for (int i = 0; i < 200; ++i) // random widths: 1 to 64 bits
        values.push_back(rng.next() >> rng.nextBelow(64));
    for (int i = 0; i < 8; ++i)
        values.push_back(rng.next() >> (8 * i));

    Fnv1aFold fold;
    uint64_t expected = fnv1aBasis;
    for (uint64_t v : values) {
        Fnv1aFold single;
        single.u64(v);
        EXPECT_EQ(single.hash, reference(fnv1aBasis, v)) << v;
        fold.u64(v);
        expected = reference(expected, v);
        ASSERT_EQ(fold.hash, expected) << v;
    }
    // The fold equals the byte hash of the little-endian bytes.
    std::vector<uint8_t> bytes;
    for (uint64_t v : values)
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    EXPECT_EQ(fold.hash, fnv1a64(bytes.data(), bytes.size()));
}

TEST(Strings, CsprintfFormats)
{
    EXPECT_EQ(csprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(csprintf("%05u", 7u), "00007");
    EXPECT_EQ(csprintf("empty"), "empty");
}

TEST(Strings, JoinAndSplitRoundTrip)
{
    std::vector<std::string> parts = {"a", "bb", "ccc"};
    EXPECT_EQ(join(parts, ","), "a,bb,ccc");
    EXPECT_EQ(split("a,bb,ccc", ','), parts);
}

TEST(Strings, SplitDropsEmptyByDefault)
{
    EXPECT_EQ(split("a,,b", ',').size(), 2u);
    EXPECT_EQ(split("a,,b", ',', true).size(), 3u);
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("module foo", "module"));
    EXPECT_FALSE(startsWith("mod", "module"));
}

TEST(Strings, ParseCountIsExactAndChecked)
{
    const uint64_t max64 = std::numeric_limits<uint64_t>::max();
    uint64_t out = 7;
    EXPECT_TRUE(parseCount("0", out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parseCount("18446744073709551615", out));
    EXPECT_EQ(out, max64);
    EXPECT_TRUE(parseCount("inf", out));
    EXPECT_EQ(out, max64);
    EXPECT_TRUE(parseCount("unbounded", out));
    EXPECT_EQ(out, max64);
    EXPECT_TRUE(parseCount("1048576", out, 1, 1u << 20));
    EXPECT_EQ(out, 1u << 20);

    out = 7;
    for (const char *bad : {"", "18446744073709551616",
                            "18446744073709551617", "99999999999999999999",
                            "2.9", "1e30", "-1", "+4", " 4", "4 ", "0x10",
                            "four"}) {
        EXPECT_FALSE(parseCount(bad, out)) << bad;
    }
    // Range: "inf" is UINT64_MAX and obeys the bound like any value.
    EXPECT_FALSE(parseCount("0", out, 1));
    EXPECT_FALSE(parseCount("1048577", out, 1, 1u << 20));
    EXPECT_FALSE(parseCount("4294967297", out, 1, 1u << 20));
    EXPECT_FALSE(parseCount("inf", out, 0, max64 - 1));
    EXPECT_EQ(out, 7u); // untouched on every failure
}

TEST(Strings, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567890ULL), "1,234,567,890");
}

TEST(Count, CarryAcross64BitsIsExact)
{
    const uint64_t max64 = std::numeric_limits<uint64_t>::max();
    Count sum = Count(max64) + 1;
    EXPECT_FALSE(sum.saturated());
    EXPECT_EQ(sum.str(), "18446744073709551616");
    EXPECT_EQ(sum.clampU64(), max64);
    EXPECT_EQ(sum - 1, max64);
    EXPECT_EQ((Count(max64) * max64).str(),
              "340282366920938463426481119284349108225");
    EXPECT_EQ(withCommas(Count(uint64_t(1) << 63) * 4),
              "36,893,488,147,419,103,232");
}

TEST(Count, SaturationIsSticky)
{
    const Count max = Count::max();
    EXPECT_TRUE(max.saturated());
    EXPECT_EQ(max + 1, max);
    EXPECT_EQ(max + max, max);
    EXPECT_EQ(max * 2, max);
    EXPECT_EQ(max * 1, max);
    Count acc = max;
    acc += 5;
    ++acc;
    acc *= 3;
    EXPECT_EQ(acc, max);
    // Clipping from below: (2^64)^2 = 2^128 is one past the clip.
    const Count two64 = Count(std::numeric_limits<uint64_t>::max()) + 1;
    EXPECT_EQ(two64 * two64, max);
    EXPECT_EQ(max - 1 + 1, max);
    EXPECT_FALSE((max - 1).saturated());
}

TEST(Count, SaturatedTimesZeroIsZero)
{
    EXPECT_EQ(Count::max() * 0, 0u);
    EXPECT_EQ(Count(0) * Count::max(), 0u);
    EXPECT_FALSE((Count::max() * 0).saturated());
}

TEST(Count, ComparesWithUint64)
{
    const uint64_t max64 = std::numeric_limits<uint64_t>::max();
    const Count big = Count(max64) + 1;
    EXPECT_TRUE(big > max64);
    EXPECT_TRUE(max64 < big);
    EXPECT_FALSE(big == max64);
    EXPECT_TRUE(Count(max64) == max64);
    EXPECT_TRUE(Count(7) <= 7u);
    EXPECT_TRUE(Count(7) < 8u);
    EXPECT_TRUE(Count(0) == 0u);
    EXPECT_DOUBLE_EQ(big.toDouble(), 18446744073709551616.0);
}

TEST(Count, PrintsExactDecimal)
{
    EXPECT_EQ(Count().str(), "0");
    EXPECT_EQ(Count(42).str(), "42");
    EXPECT_EQ(Count::max().str(), "340282366920938463463374607431768211455");
    std::ostringstream os;
    os << Count::max();
    EXPECT_EQ(os.str(), "340282366920938463463374607431768211455");
}

TEST(Rng, Deterministic)
{
    SplitMix64 a(123);
    SplitMix64 b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    SplitMix64 a(1);
    SplitMix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, NextBelowInRange)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, HashStringIsStable)
{
    EXPECT_EQ(hashString("grover"), hashString("grover"));
    EXPECT_NE(hashString("grover"), hashString("shor"));
}

TEST(Stats, AsciiTable)
{
    ResultTable table("demo");
    table.setHeader({"name", "value"});
    table.beginRow();
    table.addCell(std::string("x"));
    table.addCell(static_cast<long long>(12));
    std::ostringstream os;
    table.printAscii(os);
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("12"), std::string::npos);
}

TEST(Stats, AsciiColumnsFitWidestCell)
{
    ResultTable table("demo");
    table.setHeader({"a", "b"});
    table.beginRow();
    table.addCell(1.5, 2);
    table.addCell(std::string("z"));
    std::ostringstream os;
    table.printAscii(os);
    EXPECT_EQ(os.str(), "== demo ==\n"
                        "a     b  \n"
                        "----  -  \n"
                        "1.50  z  \n");
}

TEST(Stats, HeaderAfterRowsPanics)
{
    ResultTable table("demo");
    table.setHeader({"a"});
    table.beginRow();
    table.addCell(std::string("x"));
    EXPECT_THROW(table.setHeader({"b"}), PanicError);
}

TEST(Stats, CellBeforeRowPanics)
{
    ResultTable table("demo");
    table.setHeader({"a"});
    EXPECT_THROW(table.addCell(std::string("x")), PanicError);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.numThreads(), threads);
        std::vector<std::atomic<int>> hits(1000);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(hits.size(),
                         [&](uint64_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ZeroSelectsHardwareThreads)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), ThreadPool::hardwareThreads());
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, EmptyAndSingleBatches)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](uint64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](uint64_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int batch = 0; batch < 10; ++batch) {
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(100, [&](uint64_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    // Several tasks throw; the batch must rethrow the one a sequential
    // loop would have hit first.
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        try {
            pool.parallelFor(64, [&](uint64_t i) {
                if (i % 7 == 3) // first failing index is 3
                    throw std::runtime_error(
                        "task " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 3");
        }
    }
}

} // namespace
