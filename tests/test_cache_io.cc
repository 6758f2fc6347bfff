/**
 * @file
 * Tests for the persistent leaf-schedule cache (sched/cache_io.hh):
 * binary round-trips of real, empty and 2^64-1-counter results,
 * byte-identical re-serialization, the pinned bytes of one fixed
 * payload, truncation/bit-flip/trailing-byte, provenance and
 * bucket-count rejection with stable P-code diagnostics, the load-path counter
 * accounting (loads never count as misses; hit/miss totals are
 * thread-count- and warm/cold-invariant), the rebind-time
 * collision guard (P006), and the FNV-1a fold and structural hash the
 * keys start with, checked against byte-at-a-time references.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/serve.hh"
#include "core/toolflow.hh"
#include "sched/cache_io.hh"
#include "sched/coarse.hh"
#include "sched/comm.hh"
#include "sched/leaf_cache.hh"
#include "sched/lpfs.hh"
#include "support/diagnostic.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

#include "expect_summary.hh"

namespace {

using namespace msq;

/** Deterministic xorshift PRNG (tests must not depend on libc rand). */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed ? seed : 1) {}

    uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

    uint64_t pick(uint64_t n) { return n == 0 ? 0 : next() % n; }
};

/** A random leaf module of @p ops gates over @p qubits qubits. */
Module
randomLeaf(Rng &rng, unsigned qubits, unsigned ops)
{
    Module mod("fuzz");
    auto reg = mod.addRegister("q", qubits);
    for (unsigned i = 0; i < ops; ++i) {
        if (qubits >= 2 && rng.pick(3) == 0) {
            QubitId a = reg[rng.pick(qubits)];
            QubitId b = reg[rng.pick(qubits)];
            if (a != b) {
                mod.addGate(GateKind::CNOT, {a, b});
                continue;
            }
        }
        static const GateKind kinds[] = {GateKind::H, GateKind::T,
                                         GateKind::X, GateKind::Sdag};
        mod.addGate(kinds[rng.pick(4)], {reg[rng.pick(qubits)]});
    }
    return mod;
}

/** The result of a width task for @p mod under LPFS at width @p k. */
std::shared_ptr<LeafScheduleResult>
makeResult(const Module &mod, unsigned k, CommMode mode)
{
    MultiSimdArch arch(k);
    LpfsScheduler scheduler;
    LeafScheduler::checkInputs(mod, arch);
    const DepDag dag = DepDag::build(mod);
    return scheduleLeafWidth(scheduler, mod, dag, LeafBoundProfile(mod, dag),
                             {}, arch, mode, k);
}

void
expectResultsEqual(const LeafScheduleResult &a,
                   const LeafScheduleResult &b)
{
    EXPECT_EQ(a.opCount, b.opCount);
    EXPECT_EQ(a.qubitCount, b.qubitCount);
    EXPECT_EQ(a.attempt.provenance, b.attempt.provenance);
    EXPECT_EQ(a.attempt.nodesExpanded, b.attempt.nodesExpanded);
    EXPECT_EQ(a.attempt.readyScanned, b.attempt.readyScanned);
    test::expectSameSummary(a.summary, b.summary);
    EXPECT_EQ(a.bounds.criticalPath, b.bounds.criticalPath);
    EXPECT_EQ(a.bounds.resource, b.bounds.resource);
    EXPECT_EQ(a.bounds.interval, b.bounds.interval);
}

/** Serialize -> deserialize -> compare; returns the decoded result. */
std::shared_ptr<LeafScheduleResult>
roundTrip(const LeafScheduleResult &result)
{
    std::vector<uint8_t> bytes;
    serializeLeafResult(result, "lpfs", "d=0|lm=0|epr=0", bytes);
    std::string fingerprint;
    std::string archFp;
    auto decoded = deserializeLeafResult(bytes.data(), bytes.size(),
                                         fingerprint, archFp);
    EXPECT_NE(decoded, nullptr);
    if (decoded) {
        EXPECT_EQ(fingerprint, "lpfs");
        EXPECT_EQ(archFp, "d=0|lm=0|epr=0");
        expectResultsEqual(result, *decoded);
    }
    return decoded;
}

/** Temp-file path unique to the current test. */
std::string
tempPath(const std::string &stem)
{
    return testing::TempDir() + stem;
}

TEST(CacheIo, FnvMatchesReferenceVectors)
{
    // Standard FNV-1a test vectors: offset basis and "a".
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

/** The eight little-endian bytes of @p v appended to @p bytes. */
void
appendLe(std::vector<uint8_t> &bytes, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

TEST(CacheIo, FoldMatchesByteHash)
{
    // Fnv1aFold::u64 is fnv1a64 over the value's eight little-endian
    // bytes, alone and chained, for edge values and SplitMix64 draws.
    std::vector<uint64_t> values = {
        0, 1, 0xff, 0x100, 0xffff, 0xffffffffull, 1ull << 63, ~0ull};
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i)
        values.push_back(rng.next());
    Fnv1aFold chained;
    std::vector<uint8_t> all;
    for (uint64_t v : values) {
        std::vector<uint8_t> bytes;
        appendLe(bytes, v);
        Fnv1aFold fold;
        fold.u64(v);
        EXPECT_EQ(fold.hash, fnv1a64(bytes.data(), bytes.size())) << v;
        chained.u64(v);
        appendLe(all, v);
    }
    EXPECT_EQ(chained.hash, fnv1a64(all.data(), all.size()));
}

/** Module::structuralHash recomputed from its documented byte stream:
 * params, qubits, ops, then per op kind, callee, repeat, operand count
 * and operands, each as eight little-endian bytes. */
uint64_t
referenceStructuralHash(const Module &mod)
{
    std::vector<uint8_t> bytes;
    appendLe(bytes, mod.numParams());
    appendLe(bytes, mod.numQubits());
    appendLe(bytes, mod.numOps());
    for (const Operation &op : mod.ops()) {
        appendLe(bytes, static_cast<uint64_t>(op.kind));
        appendLe(bytes, op.callee);
        appendLe(bytes, op.repeat);
        appendLe(bytes, op.operands.size());
        for (QubitId q : op.operands)
            appendLe(bytes, q);
    }
    return fnv1a64(bytes.data(), bytes.size());
}

TEST(CacheIo, StructuralHashMatchesByteReference)
{
    // Leaf-cache keys start with the structural hash, so every module
    // of every tiny and scaled workload, built and lowered, must hash
    // to the reference bytes.
    size_t modules = 0;
    for (const auto &specs :
         {workloads::tinyParams(), workloads::scaledParams()}) {
        for (const auto &spec : specs) {
            for (const Program &prog :
                 {spec.build(), Toolflow::lowerWorkload(spec)}) {
                for (ModuleId id = 0; id < prog.numModules(); ++id) {
                    const Module &mod = prog.module(id);
                    ASSERT_EQ(mod.structuralHash(),
                              referenceStructuralHash(mod))
                        << spec.shortName << " " << mod.name();
                    ++modules;
                }
            }
        }
    }
    EXPECT_GT(modules, 0u);

    // Hand-built: a long repeat, a callee id and an operand past one
    // byte, gates whose unused callee/repeat are not the defaults, and
    // an empty module.
    Module mod("hand");
    auto reg = mod.addRegister("q", 300);
    mod.addRawOperation(Operation::makeCall(1, {reg[0], reg[1]}, 1ull << 40));
    mod.addRawOperation(Operation::makeCall(300, {reg[299]}));
    mod.addGate(GateKind::CNOT, {reg[256], reg[2]});
    Operation odd(GateKind::H, {reg[3]});
    odd.repeat = 2;
    mod.addRawOperation(odd);
    odd.repeat = 1;
    odd.callee = 7;
    mod.addRawOperation(odd);
    mod.addGate(GateKind::T, {reg[4]});
    EXPECT_EQ(mod.structuralHash(), referenceStructuralHash(mod));
    Module empty("empty");
    EXPECT_EQ(empty.structuralHash(), referenceStructuralHash(empty));
}

/**
 * The key builders append their pieces instead of formatting them; each
 * form must stay byte-identical to the printf format it replaced
 * ("%016llx|%llu|%llu", "%s|w=%u|%s", "%s|%s|%s"), on edge values.
 */
TEST(LeafCacheKey, MatchesPrintfFormat)
{
    const uint64_t max = std::numeric_limits<uint64_t>::max();
    const uint64_t edges[] = {0, 1, 9, 10, 0xf, 0x10, 0xabcdef,
                              uint64_t{1} << 32, max - 1, max};
    for (uint64_t hash : edges)
        for (uint64_t ops : edges)
            for (uint64_t qubits : {uint64_t{0}, uint64_t{7}, max})
                EXPECT_EQ(leafScheduleKeyPrefix(hash, ops, qubits),
                          csprintf("%016llx|%llu|%llu",
                                   static_cast<unsigned long long>(hash),
                                   static_cast<unsigned long long>(ops),
                                   static_cast<unsigned long long>(qubits)));

    Rng rng(5);
    Module mod = randomLeaf(rng, 6, 30);
    const std::string prefix = leafScheduleKeyPrefix(mod);
    EXPECT_EQ(prefix,
              csprintf("%016llx|%llu|%llu",
                       static_cast<unsigned long long>(mod.structuralHash()),
                       static_cast<unsigned long long>(mod.numOps()),
                       static_cast<unsigned long long>(mod.numQubits())));

    MultiSimdArch ring(1, 8, 2);
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=4,k=2,link-bw=1", ring, error))
        << error;
    for (const MultiSimdArch &arch : {MultiSimdArch(4), ring}) {
        for (CommMode mode : {CommMode::None, CommMode::Global,
                              CommMode::GlobalWithLocalMem}) {
            const std::string fingerprint = LpfsScheduler().fingerprint();
            const std::string suffix =
                leafScheduleKeySuffix(fingerprint, arch, mode);
            ASSERT_EQ(suffix,
                      csprintf("%s|%s|%s", fingerprint.c_str(),
                               arch.fingerprint().c_str(),
                               commModeName(mode)));
            for (unsigned width = 1; width <= (1u << 20); width *= 2)
                for (unsigned w : {width - 1, width, width + 1})
                    EXPECT_EQ(leafScheduleKey(prefix, w, suffix),
                              csprintf("%s|w=%u|%s", prefix.c_str(), w,
                                       suffix.c_str()));
            EXPECT_EQ(leafScheduleKey(mod, 4, suffix),
                      leafScheduleKey(prefix, 4, suffix));
        }
    }
    EXPECT_NE(ring.fingerprint().find("topo="), std::string::npos);
}

TEST(CacheIo, RoundTripRealSchedule)
{
    Rng rng(42);
    Module mod = randomLeaf(rng, 8, 40);
    auto result = makeResult(mod, 4, CommMode::Global);
    ASSERT_GT(result->summary.serialCycles.clampU64(), 0u);
    ASSERT_GT(result->summary.teleportMoves.clampU64(), 0u);
    ASSERT_GT(result->summary.gateOps.clampU64(), 0u);
    ASSERT_GT(result->bounds.composite(), 0u);
    roundTrip(*result);
}

TEST(CacheIo, RoundTripEmptySchedule)
{
    Module mod("empty");
    auto result = makeResult(mod, 4, CommMode::None);
    EXPECT_EQ(result->summary.serialCycles, 0u);
    roundTrip(*result);
}

TEST(CacheIo, RoundTripSaturatedSummary)
{
    Module mod("sat");
    auto reg = mod.addRegister("q", 2);
    mod.addGate(GateKind::H, {reg[0]});
    auto result = makeResult(mod, 2, CommMode::None);
    result->summary.gateOps = UINT64_MAX;
    result->summary.serialCycles = UINT64_MAX;
    result->summary.callInvocations = UINT64_MAX;
    result->summary.occupancy = {1, 2, UINT64_MAX, 0, 7, 0, 3, 0, UINT64_MAX};
    result->bounds.criticalPath = UINT64_MAX;
    result->attempt.provenance = ScheduleProvenance::Fallback;
    result->attempt.nodesExpanded = UINT64_MAX;
    result->attempt.readyScanned = UINT64_MAX;
    roundTrip(*result);
}

TEST(CacheIo, ByteIdenticalReserialization)
{
    Rng rng(7);
    for (int i = 0; i < 8; ++i) {
        Module mod = randomLeaf(rng, 3 + rng.pick(8), 10 + rng.pick(60));
        auto result = makeResult(mod, 2 + rng.pick(6),
                                 i % 2 ? CommMode::Global
                                       : CommMode::None);
        std::vector<uint8_t> first;
        serializeLeafResult(*result, "lpfs", "d=0|lm=0|epr=0", first);
        std::string fingerprint;
        std::string archFp;
        auto decoded = deserializeLeafResult(first.data(), first.size(),
                                             fingerprint, archFp);
        ASSERT_NE(decoded, nullptr);
        std::vector<uint8_t> second;
        serializeLeafResult(*decoded, fingerprint, archFp, second);
        EXPECT_EQ(first, second) << "iteration " << i;
    }
}

TEST(CacheIo, PayloadBytesArePinned)
{
    // Every field holds a distinct value, so swapping two fields, or
    // dropping one, in a writer and reader alike moves these bytes. The
    // digest pins the version 6 layout: a change to it is a format
    // change, which needs a new cacheFileVersion.
    LeafScheduleResult result;
    result.opCount = 7;
    result.qubitCount = 3;
    result.attempt.provenance = ScheduleProvenance::Optimal;
    result.attempt.nodesExpanded = 11;
    result.attempt.prunedByCriticalPath = 12;
    result.attempt.prunedByResource = 13;
    result.attempt.prunedByDominance = 14;
    result.attempt.candidatesAnnotated = 15;
    result.attempt.readyScanned = 16;
    ResourceSummary &rs = result.summary;
    rs.gateOps = 101;
    rs.serialCycles = 102;
    rs.commCycles = 103;
    rs.teleportMoves = 104;
    rs.blockingTeleports = 105;
    rs.localMoves = 106;
    rs.stepsWithBlockingMove = 107;
    rs.stepsWithOnlyLocalMoves = 108;
    rs.activeRegionSteps = 109;
    rs.operandTouches = 110;
    rs.peakRegionOccupancy = 111;
    rs.peakBlockingMovesPerStep = 112;
    rs.peakActiveRegions = 113;
    rs.callInvocations = 114;
    rs.interCoreTeleports = Count::max(); // stored clamped to 2^64-1
    rs.occupancy = {201, 202, 203, 204, 205, 206, 207, 208, 209};
    result.bounds.criticalPath = 301;
    result.bounds.resource = 302;
    result.bounds.interval = 303;

    std::vector<uint8_t> bytes;
    serializeLeafResult(result, "lpfs", "d=0|lm=0|epr=0", bytes);
    // 2 u64 guards, two strings (4 + 4 and 4 + 14 bytes), the attempt
    // (1 + 6 * 8), the summary (15 * 8 + 8 + 9 * 8), the bounds (3 * 8).
    EXPECT_EQ(bytes.size(), 315u);
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), 0x239c03c4358eb2bfull);

    std::string fingerprint;
    std::string archFp;
    auto decoded = deserializeLeafResult(bytes.data(), bytes.size(),
                                         fingerprint, archFp);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->summary.interCoreTeleports, UINT64_MAX);
    decoded->summary.interCoreTeleports = Count::max();
    expectResultsEqual(*decoded, result);
}

TEST(CacheIo, BadProvenanceOrBucketCountRejected)
{
    Module mod("h");
    auto reg = mod.addRegister("q", 1);
    mod.addGate(GateKind::H, {reg[0]});
    auto result = makeResult(mod, 2, CommMode::None);
    std::vector<uint8_t> good;
    serializeLeafResult(*result, "lpfs", "d=0|lm=0|epr=0", good);
    // The provenance byte follows the guards and both fingerprints; the
    // bucket count follows the attempt's six u64s and the 15 counters.
    const size_t provenance_at = 8 + 8 + 4 + 4 + 4 + 14;
    const size_t buckets_at = provenance_at + 1 + 6 * 8 + 15 * 8;
    ASSERT_EQ(good[buckets_at], 9u);
    const auto rejects = [&](size_t at, uint8_t value) {
        std::vector<uint8_t> bytes = good;
        bytes[at] = value;
        std::string fingerprint;
        std::string archFp;
        return deserializeLeafResult(bytes.data(), bytes.size(),
                                     fingerprint, archFp) == nullptr;
    };
    EXPECT_FALSE(rejects(provenance_at, 2));
    EXPECT_TRUE(rejects(provenance_at, 3));
    EXPECT_TRUE(rejects(buckets_at, 8));
    EXPECT_TRUE(rejects(buckets_at, 10));
}

TEST(CacheIo, TruncatedPayloadRejectedNotCrash)
{
    Rng rng(3);
    Module mod = randomLeaf(rng, 6, 30);
    auto result = makeResult(mod, 4, CommMode::Global);
    std::vector<uint8_t> bytes;
    serializeLeafResult(*result, "lpfs", "d=0|lm=0|epr=0", bytes);
    // Every proper prefix must decode to nullptr, never crash.
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::string fingerprint;
        std::string archFp;
        EXPECT_EQ(deserializeLeafResult(bytes.data(), len, fingerprint,
                                        archFp),
                  nullptr)
            << "prefix " << len;
    }
}

/** One cache with two distinct real entries, keyed canonically. */
void
populate(LeafScheduleCache &cache, const std::string &suffix)
{
    Rng rng(11);
    for (unsigned i = 0; i < 2; ++i) {
        Module mod = randomLeaf(rng, 4 + i, 20 + 5 * i);
        auto result = makeResult(mod, 4, CommMode::Global);
        cache.insert(leafScheduleKey(mod, 4, suffix), result);
    }
}

TEST(CacheIo, SaveLoadRoundTripAndCounters)
{
    MultiSimdArch arch(4);
    const std::string suffix =
        leafScheduleKeySuffix(LpfsScheduler().fingerprint(), arch,
                              CommMode::Global);
    LeafScheduleCache cache;
    populate(cache, suffix);
    const std::string path = tempPath("cache_roundtrip.msqc");

    DiagnosticEngine diags;
    EXPECT_EQ(cache.saveTo(path, &diags), 2u);
    EXPECT_EQ(diags.numWarnings(), 0u);

    LeafScheduleCache loaded;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 2u);
    EXPECT_EQ(diags.numWarnings(), 0u);
    EXPECT_EQ(loaded.size(), 2u);
    // Satellite contract: preloading counts as loads, never misses.
    EXPECT_EQ(loaded.loads(), 2u);
    EXPECT_EQ(loaded.hits(), 0u);
    EXPECT_EQ(loaded.misses(), 0u);

    // Entries compare equal to the originals.
    auto original = cache.snapshotEntries();
    auto reloaded = loaded.snapshotEntries();
    ASSERT_EQ(original.size(), reloaded.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(original[i].first, reloaded[i].first);
        expectResultsEqual(*original[i].second, *reloaded[i].second);
    }

    // Re-saving the loaded cache reproduces the file byte for byte
    // (key-sorted entries make the bytes deterministic).
    const std::string path2 = tempPath("cache_roundtrip2.msqc");
    EXPECT_EQ(loaded.saveTo(path2, &diags), 2u);
    std::ifstream a(path, std::ios::binary), b(path2, std::ios::binary);
    std::string bytesA((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
    std::string bytesB((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
    EXPECT_EQ(bytesA, bytesB);
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(CacheIo, BadMagicRejected)
{
    MultiSimdArch arch(4);
    const std::string suffix = leafScheduleKeySuffix(
        LpfsScheduler().fingerprint(), arch, CommMode::Global);
    LeafScheduleCache cache;
    populate(cache, suffix);
    const std::string path = tempPath("cache_badmagic.msqc");
    ASSERT_EQ(cache.saveTo(path), 2u);

    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary);
    file.seekp(0);
    file.put('X');
    file.close();

    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 0u);
    EXPECT_TRUE(diags.has(DiagCode::CacheFileBadMagic));
    std::remove(path.c_str());

    // Paths that name no readable file load nothing and say so.
    for (const std::string &bad : {path, testing::TempDir()}) {
        DiagnosticEngine unreadable;
        EXPECT_EQ(loaded.loadFrom(bad, &unreadable), 0u) << bad;
        EXPECT_TRUE(unreadable.has(DiagCode::CacheFileTruncated)) << bad;
    }
}

TEST(CacheIo, BadVersionRejected)
{
    MultiSimdArch arch(4);
    const std::string suffix = leafScheduleKeySuffix(
        LpfsScheduler().fingerprint(), arch, CommMode::Global);
    LeafScheduleCache cache;
    populate(cache, suffix);
    const std::string path = tempPath("cache_badversion.msqc");
    ASSERT_EQ(cache.saveTo(path), 2u);

    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary);
    file.seekp(4); // version field follows the 4-byte magic
    file.put(static_cast<char>(0x7F));
    file.close();

    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 0u);
    EXPECT_TRUE(diags.has(DiagCode::CacheFileBadVersion));
    std::remove(path.c_str());
}

TEST(CacheIo, TruncatedFileReportsP003)
{
    MultiSimdArch arch(4);
    const std::string suffix = leafScheduleKeySuffix(
        LpfsScheduler().fingerprint(), arch, CommMode::Global);
    LeafScheduleCache cache;
    populate(cache, suffix);
    const std::string path = tempPath("cache_truncated.msqc");
    ASSERT_EQ(cache.saveTo(path), 2u);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Cut the file inside the second entry: the first entry must still
    // load; the truncation must be a P003 diagnostic, not a crash.
    std::string cut = bytes.substr(0, bytes.size() - 20);
    const std::string cutPath = tempPath("cache_truncated_cut.msqc");
    std::ofstream(cutPath, std::ios::binary) << cut;
    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(cutPath, &diags), 1u);
    EXPECT_TRUE(diags.has(DiagCode::CacheFileTruncated));

    // And every shorter prefix still never crashes.
    for (size_t len = 0; len < bytes.size(); len += 7) {
        std::ofstream(cutPath, std::ios::binary)
            << bytes.substr(0, len);
        LeafScheduleCache prefix_cache;
        prefix_cache.loadFrom(cutPath); // diagnostics optional
    }
    std::remove(path.c_str());
    std::remove(cutPath.c_str());
}

TEST(CacheIo, BitFlippedPayloadReportsP004)
{
    MultiSimdArch arch(4);
    const std::string suffix = leafScheduleKeySuffix(
        LpfsScheduler().fingerprint(), arch, CommMode::Global);
    LeafScheduleCache cache;
    populate(cache, suffix);
    const std::string path = tempPath("cache_bitflip.msqc");
    ASSERT_EQ(cache.saveTo(path), 2u);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Flip one byte near the end (inside the last entry's payload):
    // the checksum must catch it; the other entry still loads.
    bytes[bytes.size() - 5] ^= 0x40;
    std::ofstream(path, std::ios::binary) << bytes;
    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 1u);
    EXPECT_TRUE(diags.has(DiagCode::CacheEntryCorrupt));
    std::remove(path.c_str());
}

TEST(CacheIo, KeyPayloadMismatchReportsP005)
{
    MultiSimdArch arch(4);
    const std::string suffix = leafScheduleKeySuffix(
        LpfsScheduler().fingerprint(), arch, CommMode::Global);
    Rng rng(5);
    Module mod = randomLeaf(rng, 5, 25);
    auto result = makeResult(mod, 4, CommMode::Global);

    // File the entry under a key claiming different op/qubit counts
    // than the payload's own guard fields (a forged or collided key).
    std::string key = csprintf(
        "deadbeefdeadbeef|%llu|%llu|w=4|%s",
        static_cast<unsigned long long>(result->opCount + 1),
        static_cast<unsigned long long>(result->qubitCount),
        suffix.c_str());
    LeafScheduleCache cache;
    cache.insertLoaded(key, result);
    const std::string path = tempPath("cache_keymismatch.msqc");
    ASSERT_EQ(cache.saveTo(path), 1u);

    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 0u);
    EXPECT_TRUE(diags.has(DiagCode::CacheEntryKeyMismatch));
    EXPECT_EQ(loaded.size(), 0u);
    std::remove(path.c_str());
}

/**
 * A key's count fields are read through parseCount, so a sign, a space
 * or a suffix around the payload's own op count (N) makes the key
 * unparseable: never 2^64 - 1 for "-1", never N for " N", "+N" or "Nx".
 */
class MalformedKeyOps : public testing::TestWithParam<std::string>
{
};

TEST_P(MalformedKeyOps, ReportsUnparseableKey)
{
    MultiSimdArch arch(4);
    Rng rng(5);
    Module mod = randomLeaf(rng, 5, 25);
    auto result = makeResult(mod, 4, CommMode::Global);
    std::string ops = GetParam();
    if (size_t n = ops.find('N'); n != std::string::npos)
        ops.replace(n, 1, std::to_string(result->opCount));
    const std::string key =
        "deadbeefdeadbeef|" + ops + "|" +
        std::to_string(result->qubitCount) + "|w=4|" +
        leafScheduleKeySuffix(LpfsScheduler().fingerprint(), arch,
                              CommMode::Global);
    LeafScheduleCache cache;
    cache.insertLoaded(key, result);
    const std::string path = tempPath("cache_malformed_key.msqc");
    ASSERT_EQ(cache.saveTo(path), 1u);

    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 0u);
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    EXPECT_EQ(diags.diagnostics()[0].code, DiagCode::CacheEntryKeyMismatch);
    EXPECT_EQ(diags.diagnostics()[0].message, "unparseable cache key " + key);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CacheIo, MalformedKeyOps,
                         testing::Values("-1", " N", "+N", "Nx"));

// ---------------------------------------------------------------------
// Satellite 1: counter accounting across thread counts and warm/cold
// starts. The PR 3/4 invariance contract said "hit/miss totals are
// identical for any thread count" assuming an empty cache; the load
// path must preserve it — a warm start turns every cold miss into a
// hit, never into a phantom miss.
// ---------------------------------------------------------------------

Program
repeatedLeafProgram()
{
    Program prog;
    ModuleId chain = prog.addModule("chain");
    {
        Module &mod = prog.module(chain);
        QubitId q = mod.addParam("q");
        for (int i = 0; i < 12; ++i)
            mod.addGate(i % 2 ? GateKind::T : GateKind::H, {q});
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId a = mod.addLocal("a");
        QubitId b = mod.addLocal("b");
        QubitId c = mod.addLocal("c");
        mod.addCall(chain, {a}, 3);
        mod.addCall(chain, {b}, 2);
        mod.addCall(chain, {c}, 1);
        mod.addGate(GateKind::CNOT, {a, b});
    }
    prog.setEntry(top);
    return prog;
}

struct CacheTotals
{
    uint64_t hits, misses, loads;
};

CacheTotals
scheduleWithCache(unsigned threads,
                  std::shared_ptr<LeafScheduleCache> cache)
{
    Program prog = repeatedLeafProgram();
    LpfsScheduler leaf;
    CoarseScheduler::Options options;
    options.numThreads = threads;
    options.leafCache = cache;
    CoarseScheduler coarse(MultiSimdArch(4), leaf, CommMode::Global,
                           options);
    coarse.schedule(prog);
    return {cache->hits(), cache->misses(), cache->loads()};
}

TEST(LeafCacheCounters, WarmColdAndThreadCountInvariance)
{
    // Cold baselines at 1 and 4 threads: identical totals.
    CacheTotals cold1 =
        scheduleWithCache(1, std::make_shared<LeafScheduleCache>());
    CacheTotals cold4 =
        scheduleWithCache(4, std::make_shared<LeafScheduleCache>());
    EXPECT_EQ(cold1.hits, cold4.hits);
    EXPECT_EQ(cold1.misses, cold4.misses);
    EXPECT_GT(cold1.misses, 0u);
    EXPECT_EQ(cold1.loads, 0u);

    // Persist a cold cache, then warm-start fresh caches from it.
    auto seed = std::make_shared<LeafScheduleCache>();
    scheduleWithCache(1, seed);
    const std::string path = tempPath("cache_invariance.msqc");
    ASSERT_NE(seed->saveTo(path), SIZE_MAX);

    for (unsigned threads : {1u, 4u}) {
        auto warm = std::make_shared<LeafScheduleCache>();
        DiagnosticEngine diags;
        ASSERT_EQ(warm->loadFrom(path, &diags), seed->size());
        EXPECT_EQ(diags.numWarnings(), 0u);
        CacheTotals totals = scheduleWithCache(threads, warm);
        // Every cold access replays as a hit; loads are not misses.
        EXPECT_EQ(totals.hits, cold1.hits + cold1.misses)
            << "threads=" << threads;
        EXPECT_EQ(totals.misses, 0u) << "threads=" << threads;
        EXPECT_EQ(totals.loads, seed->size());
        EXPECT_EQ(warm->hitRate(), 1.0);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Satellite 3: the rebind-time collision guard (P006). A cached entry
// whose stored op/qubit counts disagree with the requesting module is
// evicted and recomputed, never silently rebound.
// ---------------------------------------------------------------------

TEST(RebindGuard, MismatchedEntryEvictedAndRecomputed)
{
    Program prog = repeatedLeafProgram();
    LpfsScheduler leaf;
    MultiSimdArch arch(4);

    // Clean run for the ground truth.
    auto clean = std::make_shared<LeafScheduleCache>();
    CoarseScheduler::Options options;
    options.numThreads = 1;
    options.leafCache = clean;
    CoarseScheduler coarse(arch, leaf, CommMode::Global, options);
    Program cleanProg = repeatedLeafProgram();
    ProgramSchedule truth = coarse.schedule(cleanProg);

    // Poison a fresh cache: every clean entry re-filed with corrupted
    // guard counts, as a forged cache file would produce.
    auto poisoned = std::make_shared<LeafScheduleCache>();
    for (const auto &[key, value] : clean->snapshotEntries()) {
        auto forged = std::make_shared<LeafScheduleResult>(*value);
        forged->opCount += 1;
        poisoned->insertLoaded(key, std::move(forged));
    }
    const uint64_t entryCount = poisoned->size();
    ASSERT_GT(entryCount, 0u);

    CoarseScheduler::Options poisonedOptions;
    poisonedOptions.numThreads = 1;
    poisonedOptions.leafCache = poisoned;
    CoarseScheduler guarded(arch, leaf, CommMode::Global,
                            poisonedOptions);
    ProgramSchedule recomputed = guarded.schedule(prog);

    // Every poisoned entry was refused and recomputed; the resulting
    // schedule matches the clean run exactly.
    EXPECT_EQ(poisoned->rejections(), entryCount);
    EXPECT_EQ(recomputed.totalCycles, truth.totalCycles);
    ASSERT_EQ(recomputed.modules.size(), truth.modules.size());
    for (size_t i = 0; i < truth.modules.size(); ++i) {
        if (!truth.modules[i].analyzed)
            continue;
        ASSERT_EQ(recomputed.modules[i].dims.size(),
                  truth.modules[i].dims.size());
        for (size_t d = 0; d < truth.modules[i].dims.size(); ++d) {
            EXPECT_EQ(recomputed.modules[i].dims[d].length,
                      truth.modules[i].dims[d].length);
        }
    }
    // The recomputed (correct) entries replaced the forged ones: the
    // cache now holds exactly the clean entries again.
    auto cleanEntries = clean->snapshotEntries();
    auto healedEntries = poisoned->snapshotEntries();
    ASSERT_EQ(healedEntries.size(), cleanEntries.size());
    for (size_t i = 0; i < cleanEntries.size(); ++i) {
        EXPECT_EQ(healedEntries[i].first, cleanEntries[i].first);
        EXPECT_EQ(healedEntries[i].second->opCount,
                  cleanEntries[i].second->opCount);
        EXPECT_EQ(healedEntries[i].second->summary.serialCycles,
                  cleanEntries[i].second->summary.serialCycles);
    }
}

// ---------------------------------------------------------------------
// .msqc v2: topology-fingerprint guard (P007), inter-core counter
// round-trips, and v1 rejection (old flat-machine files cold-start).
// ---------------------------------------------------------------------

void
pushLe32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
pushLe64(std::vector<uint8_t> &out, uint64_t v)
{
    pushLe32(out, static_cast<uint32_t>(v));
    pushLe32(out, static_cast<uint32_t>(v >> 32));
}

/** One-entry cache file assembled by hand (forged header fields). */
std::vector<uint8_t>
buildCacheFile(uint32_t version, const std::string &key,
               const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> file(cacheFileMagic, cacheFileMagic + 4);
    pushLe32(file, version);
    pushLe32(file, cacheFileEndianTag);
    pushLe64(file, 1);
    pushLe32(file, static_cast<uint32_t>(key.size()));
    file.insert(file.end(), key.begin(), key.end());
    pushLe64(file, payload.size());
    pushLe64(file, fnv1a64(payload.data(), payload.size()));
    file.insert(file.end(), payload.begin(), payload.end());
    return file;
}

TEST(CacheIoV2, InterCoreCountersRoundTrip)
{
    Rng rng(21);
    Module mod = randomLeaf(rng, 6, 30);
    auto result = makeResult(mod, 4, CommMode::Global);
    result->summary.interCoreTeleports = 5;
    roundTrip(*result);
}

TEST(CacheIoV2, MultiCoreKeySuffixRoundTrip)
{
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec(
        "cores=4,k=1,shape=ring,link-bw=1,link-lat=3", arch, error))
        << error;
    const std::string suffix = leafScheduleKeySuffix(
        LpfsScheduler().fingerprint(), arch, CommMode::Global);
    EXPECT_NE(suffix.find("topo=ring:4x1"), std::string::npos);

    LeafScheduleCache cache;
    populate(cache, suffix);
    const std::string path = tempPath("cache_multicore.msqc");
    DiagnosticEngine diags;
    ASSERT_EQ(cache.saveTo(path, &diags), 2u);

    // The stored arch fingerprint agrees with the key, so the entries
    // load cleanly — no P007.
    LeafScheduleCache loaded;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 2u);
    EXPECT_EQ(diags.numWarnings(), 0u);
    EXPECT_FALSE(diags.has(DiagCode::CacheTopologyMismatch));
    auto original = cache.snapshotEntries();
    auto reloaded = loaded.snapshotEntries();
    ASSERT_EQ(original.size(), reloaded.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(original[i].first, reloaded[i].first);
        expectResultsEqual(*original[i].second, *reloaded[i].second);
    }
    std::remove(path.c_str());
}

TEST(CacheIoV2, TopologyMismatchReportsP007)
{
    // Payload claims it was scheduled for a ring topology; the key it
    // is filed under is a flat-machine key. The entry must be skipped
    // with a P007 diagnostic, not rebound to the wrong machine.
    MultiSimdArch arch(4);
    const std::string fp = LpfsScheduler().fingerprint();
    const std::string suffix =
        leafScheduleKeySuffix(fp, arch, CommMode::Global);
    Rng rng(9);
    Module mod = randomLeaf(rng, 5, 25);
    auto result = makeResult(mod, 4, CommMode::Global);

    std::vector<uint8_t> payload;
    serializeLeafResult(*result, fp,
                        "topo=ring:9x9|lbw=1|llat=3|map=greedy",
                        payload);
    std::vector<uint8_t> file = buildCacheFile(
        cacheFileVersion, leafScheduleKey(mod, 4, suffix), payload);

    const std::string path = tempPath("cache_p007.msqc");
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char *>(file.data()),
               static_cast<std::streamsize>(file.size()));
    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 0u);
    EXPECT_TRUE(diags.has(DiagCode::CacheTopologyMismatch));
    EXPECT_EQ(loaded.size(), 0u);
    std::remove(path.c_str());
}

TEST(CacheIo, TrailingPayloadByteReportsP004)
{
    // A payload one byte longer than the record, re-checksummed so the
    // checksum passes: the decoder must refuse it, and a file holding
    // it loads nothing.
    MultiSimdArch arch(4);
    const std::string fp = LpfsScheduler().fingerprint();
    const std::string suffix =
        leafScheduleKeySuffix(fp, arch, CommMode::Global);
    Rng rng(19);
    Module mod = randomLeaf(rng, 5, 25);
    auto result = makeResult(mod, 4, CommMode::Global);
    std::vector<uint8_t> payload;
    serializeLeafResult(*result, fp, arch.fingerprint(), payload);
    payload.push_back(0);
    std::string fingerprint;
    std::string archFp;
    EXPECT_EQ(deserializeLeafResult(payload.data(), payload.size(),
                                    fingerprint, archFp),
              nullptr);

    std::vector<uint8_t> file = buildCacheFile(
        cacheFileVersion, leafScheduleKey(mod, 4, suffix), payload);
    const std::string path = tempPath("cache_trailing.msqc");
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char *>(file.data()),
               static_cast<std::streamsize>(file.size()));
    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 0u);
    EXPECT_TRUE(diags.has(DiagCode::CacheEntryCorrupt));
    EXPECT_EQ(loaded.size(), 0u);
    std::remove(path.c_str());
}

/**
 * A file with an older @p version header is refused whole with P002
 * before any entry is read, whatever its payload holds, and a daemon
 * pointed at it cold-starts.
 */
void
expectOldVersionRejectedThenColdStarts(uint32_t version)
{
    MultiSimdArch arch(4);
    const std::string fp = LpfsScheduler().fingerprint();
    const std::string suffix =
        leafScheduleKeySuffix(fp, arch, CommMode::Global);
    Rng rng(13);
    Module mod = randomLeaf(rng, 6, 30);
    auto result = makeResult(mod, 4, CommMode::Global);
    std::vector<uint8_t> payload;
    serializeLeafResult(*result, fp, "", payload);
    std::vector<uint8_t> file =
        buildCacheFile(version, leafScheduleKey(mod, 4, suffix), payload);

    const std::string path =
        tempPath("cache_v" + std::to_string(version) + ".msqc");
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char *>(file.data()),
               static_cast<std::streamsize>(file.size()));
    LeafScheduleCache loaded;
    DiagnosticEngine diags;
    EXPECT_EQ(loaded.loadFrom(path, &diags), 0u);
    EXPECT_TRUE(diags.has(DiagCode::CacheFileBadVersion));
    EXPECT_EQ(loaded.size(), 0u);

    // A daemon pointed at the file cold-starts: it loads nothing and
    // schedules its first request's leaves afresh.
    ServeOptions options;
    options.cachePath = path;
    ServeEngine engine(options);
    EXPECT_EQ(engine.loadCache(), 0u);
    EXPECT_TRUE(engine.diags().has(DiagCode::CacheFileBadVersion));
    std::string error;
    auto response = parseJson(
        engine.handleLine("{\"workload\": \"grovers\", \"params\": "
                          "\"tiny\", \"k\": 4}"),
        error);
    ASSERT_NE(response, nullptr) << error;
    EXPECT_TRUE(response->get("ok").asBool());
    EXPECT_EQ(engine.cache().loads(), 0u);
    EXPECT_GT(engine.cache().misses(), 0u);
    std::remove(path.c_str());
}

TEST(CacheIoV2, VersionOneFileRejectedThenColdStarts)
{
    expectOldVersionRejectedThenColdStarts(1);
}

TEST(CacheIo, VersionTwoFileRejectedThenColdStarts)
{
    // Version 2 stored a saturation flag byte after the summary and
    // after the bounds; version 3 reads saturation from the values.
    expectOldVersionRejectedThenColdStarts(2);
}

TEST(CacheIo, VersionThreeFileRejectedThenColdStarts)
{
    // Version 3 had no readyScanned counter in the attempt.
    expectOldVersionRejectedThenColdStarts(3);
}

TEST(CacheIo, VersionFourFileRejectedThenColdStarts)
{
    // Version 4 stored each entry's schedule buffer after the bounds.
    expectOldVersionRejectedThenColdStarts(4);
}

TEST(CacheIo, VersionFiveFileRejectedThenColdStarts)
{
    // Version 5 stored a CommStats block (11 u64) before the attempt.
    expectOldVersionRejectedThenColdStarts(5);
}

TEST(RebindGuard, ZeroCountResultRebindsOnlyToEmptyModule)
{
    // 0/0 is the guard of an empty module, not a wildcard.
    LeafScheduleResult guard;
    EXPECT_TRUE(guard.matchesModule(0, 0));
    EXPECT_FALSE(guard.matchesModule(10, 3));
    EXPECT_FALSE(guard.matchesModule(0, 3));
    guard.opCount = 10;
    guard.qubitCount = 3;
    EXPECT_TRUE(guard.matchesModule(10, 3));
    EXPECT_FALSE(guard.matchesModule(11, 3));
    EXPECT_FALSE(guard.matchesModule(10, 4));
}

} // namespace
