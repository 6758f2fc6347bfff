/**
 * @file
 * Width-sweep bit-identity pins: for every scaledParams() workload under
 * RCP and LPFS, the whole-program makespan and a hash of every leaf
 * schedule produced at machine widths k = 1, 2 and 4 must equal the
 * values recorded here. The goldens under tests/golden/ dump only a few
 * workloads at k = 4; these pins cover the narrow widths of the coarse
 * sweep too, where the leaf schedulers' ready lists are longest. A
 * scheduler performance change must leave every row untouched.
 *
 * A second table pins LPFS under the options the default rows leave
 * out — a finite d, two dedicated path regions, SIMD filling and path
 * refill both off, and a two-core ring — at k = 1 and 4 on SHA-1 and
 * CN, the workloads with the longest ready lists.
 *
 * The leaf hash digests each cached leaf result — its op and qubit
 * counts, its communication cycle total and the full SoA schedule
 * stream: slots, step ends, the op stream and the movement stream — and
 * folds the sorted digests, so it is independent of scheduling order and
 * of the cache-key format. The cache keeps no schedules, so the harness
 * rebuilds each entry's schedule with the two calls a width task makes:
 * the leaf scheduler at the entry's width, then the full-machine
 * annotate. Width invariance makes a derived width's schedule that of
 * its own task.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/serve.hh"
#include "core/toolflow.hh"
#include "sched/cache_io.hh"
#include "sched/leaf_cache.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

struct Pin
{
    const char *workload;
    const char *scheduler;
    unsigned k;
    uint64_t totalCycles;
    uint64_t programHash; ///< hashProgramSchedule
    uint64_t leafHash;    ///< every leaf schedule buffer, digest-sorted
};

// clang-format off
const Pin kPins[] = {
    {"bf", "rcp", 1, 45249, 0x26ae33d1e2bca1efull, 0x0aff06ae873c3421ull},
    {"bf", "rcp", 2, 35806, 0x3b5dfdadab9a42b2ull, 0x36348f6d256820faull},
    {"bf", "rcp", 4, 34920, 0xffaeeaad725e8fd8ull, 0xaa8158aaad0b38faull},
    {"bf", "lpfs", 1, 39504, 0xc53e1efd97326c56ull, 0xd38e8f1fb2b6b97cull},
    {"bf", "lpfs", 2, 35307, 0xf6fd8d1358efef0cull, 0x4abaa9a7c4849b47ull},
    {"bf", "lpfs", 4, 33305, 0x5cb71cfa45d52eb6ull, 0x9f04497b3864fb0full},
    {"bwt", "rcp", 1, 2517685, 0xb0d32bf6520cb4b5ull, 0x0b04add47d807ea5ull},
    {"bwt", "rcp", 2, 1951695, 0x6489d1e46a0eaceaull, 0x2aa4390e43c041a3ull},
    {"bwt", "rcp", 4, 1932350, 0x48a2f49e7c7d347cull, 0xfcd74d3a7508557eull},
    {"bwt", "lpfs", 1, 2160385, 0x60532720aecd0dc3ull, 0xc2f30768b1883ce6ull},
    {"bwt", "lpfs", 2, 1822295, 0xd7b9bc436d2f7bd8ull, 0xfa307ec16fe02f83ull},
    {"bwt", "lpfs", 4, 1789550, 0x2330504b27796e0aull, 0x9fe299527f7f34e9ull},
    {"cn", "rcp", 1, 10744620, 0xb0de994c7996bdafull, 0x8eadc4581b245881ull},
    {"cn", "rcp", 2, 8475830, 0x28facefb2a40ab01ull, 0x1777807112cfc385ull},
    {"cn", "rcp", 4, 8383280, 0xf89375cc6362514full, 0x553389e54d0631aaull},
    {"cn", "lpfs", 1, 9685100, 0x319232fb12a75de1ull, 0x254e7d19411b58a0ull},
    {"cn", "lpfs", 2, 8634070, 0x798d0c0e1e852264ull, 0x4b3feff2be72bef1ull},
    {"cn", "lpfs", 4, 7840560, 0x4b4ee597147f0130ull, 0x32e83d5878bb845eull},
    {"grovers", "rcp", 1, 49866, 0xc6a68a4234bd5535ull, 0x17ba93f482cba148ull},
    {"grovers", "rcp", 2, 39769, 0x5746c4bf445af05full, 0x9a78bb0c2d645c8dull},
    {"grovers", "rcp", 4, 39769, 0xdf312aa8018b22c1ull, 0xf0f5bae0344e5085ull},
    {"grovers", "lpfs", 1, 34706, 0x4b47ce63560bb8deull, 0x1257d3ed48096d0aull},
    {"grovers", "lpfs", 2, 34706, 0xb1f31b750fe2971dull, 0x5c620967a1e01852ull},
    {"grovers", "lpfs", 4, 34706, 0xf485d1b9b66cf9aaull, 0x5df39ffcd7fdeae7ull},
    {"gse", "rcp", 1, 2100910, 0x4da8bd9d4f4ac3c3ull, 0xf78fe6068af57678ull},
    {"gse", "rcp", 2, 2001824, 0x3ec5c0584a7cbdd6ull, 0x8c5f1a098d4dd00bull},
    {"gse", "rcp", 4, 1636845, 0x5ce04716eb68f643ull, 0x7a5b48c2995a9e09ull},
    {"gse", "lpfs", 1, 1711759, 0x661e6a7b17e07e9eull, 0x723e88765c49076aull},
    {"gse", "lpfs", 2, 1037042, 0x6c47b7545c78a8ceull, 0x21dff1c74116ff29ull},
    {"gse", "lpfs", 4, 574287, 0x1ccdeef3b09dff9bull, 0xe2f929446c65ba6cull},
    {"sha1", "rcp", 1, 325813008180037, 0x4e78c4918154829aull, 0xfc51fe7679d390b4ull},
    {"sha1", "rcp", 2, 270653470045600, 0xc2dd13967ec8331full, 0xba15af412f0e532dull},
    {"sha1", "rcp", 4, 261758184938993, 0x4770469a5c3cb31full, 0x07b9db0f7bc4e419ull},
    {"sha1", "lpfs", 1, 345151904469295, 0xc622399b598664bfull, 0x910d5700331d2763ull},
    {"sha1", "lpfs", 2, 257248137086676, 0xd652a211ddc32902ull, 0xcb48a322a3b4c536ull},
    {"sha1", "lpfs", 4, 249600957967689, 0xb0ee546e947a2880ull, 0x0be6cd4eeb089c25ull},
    {"shors", "rcp", 1, 1308942, 0xd959027d5493c4b6ull, 0xa4886aaf1cb7316dull},
    {"shors", "rcp", 2, 930563, 0xd93b43b81f6a81eaull, 0xc95d3d9a31ff123aull},
    {"shors", "rcp", 4, 593401, 0x2146966b514312ccull, 0x58410e50d48eec40ull},
    {"shors", "lpfs", 1, 1308942, 0xd959027d5493c4b6ull, 0xa4886aaf1cb7316dull},
    {"shors", "lpfs", 2, 930563, 0xd93b43b81f6a81eaull, 0xc95d3d9a31ff123aull},
    {"shors", "lpfs", 4, 593401, 0x2146966b514312ccull, 0x58410e50d48eec40ull},
    {"tfp", "rcp", 1, 10282, 0x0a43d827a76442e8ull, 0x8d40ad5a83593757ull},
    {"tfp", "rcp", 2, 8302, 0xc31f1ed7fb3f19bcull, 0x1c5c314395fb062dull},
    {"tfp", "rcp", 4, 7684, 0x7ce5f8ec25b22863ull, 0xab3d3cae145285d7ull},
    {"tfp", "lpfs", 1, 11058, 0x64fcc8907b85af50ull, 0xcfc6825a14462092ull},
    {"tfp", "lpfs", 2, 8741, 0x11201528cd3e24edull, 0xb0db66607adfdc73ull},
    {"tfp", "lpfs", 4, 7676, 0x694bb7b60ff8005aull, 0x8a61ef3e0c91fd2eull},
};
// clang-format on

/** A non-default LPFS configuration pinned by kOptionPins. */
struct OptionPin
{
    const char *workload;
    const char *variant; ///< d=4 | l=2 | nosimd-norefill | ring2
    unsigned k; ///< machine width; per-core width on the ring
    uint64_t totalCycles;
    uint64_t programHash;
    uint64_t leafHash;
};

// clang-format off
const OptionPin kOptionPins[] = {
    {"sha1", "d=4", 1, 346798055069183, 0x68f0814cc99af36full, 0xf63d148e0ebf4a4full},
    {"sha1", "d=4", 4, 249442414774667, 0x364137de5979241bull, 0xf75f94cbb32c9187ull},
    {"sha1", "l=2", 1, 345151904469295, 0xc622399b598664bfull, 0x910d5700331d2763ull},
    {"sha1", "l=2", 4, 249627944043097, 0xf10704ca39727662ull, 0xe2ee528c96e997eaull},
    {"sha1", "nosimd-norefill", 1, 275089306191275, 0xda891584aa331c50ull, 0xd50af0d3f6c3d165ull},
    {"sha1", "nosimd-norefill", 4, 262645352168031, 0x981f926c29a66d65ull, 0xbb4f9c69c6de925dull},
    {"sha1", "ring2", 1, 283944112184040, 0x35f5c37bb3f94c29ull, 0x34a14519433da406ull},
    {"sha1", "ring2", 4, 252991083690699, 0x2a5eaa8cb842ac67ull, 0x83743b06fa613fdaull},
    {"cn", "d=4", 1, 9847980, 0x9b908f780769bab0ull, 0xcc6324aea4826d5eull},
    {"cn", "d=4", 4, 7841360, 0x50a65f46aea404abull, 0xf845d279f2462ec3ull},
    {"cn", "l=2", 1, 9685100, 0x319232fb12a75de1ull, 0x254e7d19411b58a0ull},
    {"cn", "l=2", 4, 7834960, 0x1fb7a0f5966aca62ull, 0x2154400e9261f154ull},
    {"cn", "nosimd-norefill", 1, 12705420, 0xe95dc84e1682faa6ull, 0xe404af792e2039b9ull},
    {"cn", "nosimd-norefill", 4, 8293360, 0xbcda974c83551e5bull, 0x95de3c2e869ef30aull},
    {"cn", "ring2", 1, 9687830, 0xe2fc402f87b69cf1ull, 0xdd27395519921201ull},
    {"cn", "ring2", 4, 7931730, 0x12fc44e3194d7580ull, 0x1558cfd44531f4b6ull},
};
// clang-format on

/** Little-endian byte stream of the hashed fields. */
class Bytes
{
  public:
    template <typename T>
    void
    put(T value)
    {
        for (size_t i = 0; i < sizeof(T); ++i)
            data.push_back(static_cast<uint8_t>(
                static_cast<uint64_t>(value) >> (8 * i)));
    }

    std::vector<uint8_t> data;
};

void
putLocation(Bytes &out, const Location &loc)
{
    out.put<uint8_t>(static_cast<uint8_t>(loc.kind));
    out.put<uint32_t>(loc.region);
}

/**
 * Digest of every leaf result @p cache holds after @p toolflow ran on
 * @p prog (lowered in place). The keys of every reachable leaf at every
 * sweep width must be exactly the cache's keys.
 */
uint64_t
hashLeafResults(const Program &prog, const Toolflow &toolflow,
                const LeafScheduleCache &cache)
{
    const ToolflowConfig &config = toolflow.config();
    const auto scheduler = toolflow.makeConfiguredScheduler();
    CoarseScheduler::Options options;
    options.widths = config.coarseWidths;
    const CoarseScheduler coarse(config.arch, *scheduler, config.commMode,
                                 options);
    const std::string suffix = leafScheduleKeySuffix(
        scheduler->fingerprint(), config.arch, config.commMode);
    std::map<std::string, std::pair<const Module *, unsigned>> tasks;
    for (ModuleId id : prog.reachableModules()) {
        const Module &mod = prog.module(id);
        if (!mod.isLeaf())
            continue;
        for (unsigned w : coarse.widthSweep())
            tasks.emplace(leafScheduleKey(mod, w, suffix),
                          std::make_pair(&mod, w));
    }

    const auto entries = cache.snapshotEntries();
    std::vector<std::string> cached_keys;
    std::vector<std::string> task_keys;
    for (const auto &entry : entries)
        cached_keys.push_back(entry.first);
    for (const auto &task : tasks)
        task_keys.push_back(task.first);
    EXPECT_TRUE(cached_keys == task_keys)
        << cached_keys.size() << " cached keys, " << task_keys.size()
        << " enumerated";

    std::vector<uint64_t> digests;
    for (const auto &[key, result] : entries) {
        const auto task = tasks.find(key);
        if (task == tasks.end())
            continue;
        const auto [mod, w] = task->second;
        MultiSimdArch sub = config.arch;
        sub.k = w;
        LeafSchedule sched = scheduler->schedule(*mod, sub);
        const uint64_t cycles = result->summary.serialCycles.clampU64();
        EXPECT_EQ(CommunicationAnalyzer(config.arch, config.commMode)
                      .annotate(sched)
                      .totalCycles,
                  cycles)
            << key;
        const ScheduleBuffer &buf = sched.buffer();
        Bytes out;
        out.put<uint64_t>(result->opCount);
        out.put<uint64_t>(result->qubitCount);
        out.put<uint64_t>(cycles);
        out.put<uint32_t>(buf.k);
        for (const ScheduleBuffer::Slot &slot : buf.slots) {
            out.put<uint32_t>(slot.opEnd);
            out.put<uint32_t>(slot.region);
            out.put<uint8_t>(static_cast<uint8_t>(slot.kind));
        }
        for (uint32_t end : buf.slotEnd)
            out.put<uint32_t>(end);
        for (uint32_t op : buf.ops)
            out.put<uint32_t>(op);
        for (const Move &move : buf.moves) {
            out.put<uint32_t>(move.qubit);
            putLocation(out, move.from);
            putLocation(out, move.to);
            out.put<uint8_t>(move.blocking ? 1 : 0);
        }
        for (uint64_t end : buf.moveEnd)
            out.put<uint64_t>(end);
        digests.push_back(fnv1a64(out.data.data(), out.data.size()));
    }
    // Sorted digests: the pin depends on the set of leaf schedules, not
    // on the cache-key format that orders them.
    std::sort(digests.begin(), digests.end());
    Bytes all;
    for (uint64_t digest : digests)
        all.put<uint64_t>(digest);
    return fnv1a64(all.data.data(), all.data.size());
}

/** Compile @p workload under @p config afresh and return its
 * (total cycles, program hash, leaf hash). */
Pin
measure(const char *workload, ToolflowConfig config)
{
    Program prog =
        workloads::findWorkload(workloads::scaledParams(), workload)
            .build();
    config.commMode = CommMode::Global;
    config.rotations = Toolflow::rotationPresetFor(workload);
    auto cache = std::make_shared<LeafScheduleCache>();
    config.sharedLeafCache = cache;
    const Toolflow toolflow(config);
    ToolflowResult result = toolflow.run(prog);
    return Pin{workload,
               schedulerKindName(config.scheduler),
               0,
               result.schedule.totalCycles,
               hashProgramSchedule(result.schedule),
               hashLeafResults(prog, toolflow, *cache)};
}

/** Compile @p pin's configuration on @p threads threads. */
Pin
measure(const Pin &pin, unsigned threads)
{
    ToolflowConfig config;
    config.scheduler = std::strcmp(pin.scheduler, "rcp") == 0
                           ? SchedulerKind::Rcp
                           : SchedulerKind::Lpfs;
    config.arch = MultiSimdArch(pin.k);
    config.numThreads = threads;
    return measure(pin.workload, config);
}

/** Compile @p pin's LPFS variant on one thread. */
Pin
measure(const OptionPin &pin)
{
    ToolflowConfig config;
    config.scheduler = SchedulerKind::Lpfs;
    config.arch = MultiSimdArch(pin.k);
    config.numThreads = 1;
    const std::string variant = pin.variant;
    if (variant == "d=4") {
        config.arch = MultiSimdArch(pin.k, 4);
    } else if (variant == "l=2") {
        config.lpfsOptions.l = 2;
    } else if (variant == "nosimd-norefill") {
        config.lpfsOptions.simd = false;
        config.lpfsOptions.refill = false;
    } else {
        EXPECT_EQ(variant, "ring2");
        std::string error;
        EXPECT_TRUE(parseTopologySpec(
            "cores=2,k=" + std::to_string(pin.k) +
                ",shape=ring,link-bw=1,link-lat=3",
            config.arch, error))
            << error;
    }
    return measure(pin.workload, config);
}

/** Every pinned row of @p workload, compiled on @p threads threads. */
void
expectPinned(const std::string &workload, unsigned threads)
{
    size_t checked = 0;
    for (const Pin &pin : kPins) {
        if (workload != pin.workload)
            continue;
        Pin now = measure(pin, threads);
        SCOPED_TRACE(workload + "/" + pin.scheduler +
                     " k=" + std::to_string(pin.k) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(now.totalCycles, pin.totalCycles);
        EXPECT_EQ(now.programHash, pin.programHash);
        EXPECT_EQ(now.leafHash, pin.leafHash);
        ++checked;
    }
    EXPECT_EQ(checked, 6u) << "two schedulers x three widths";
}

class WidthSweep : public ::testing::TestWithParam<const char *>
{};

TEST_P(WidthSweep, MakespanAndLeafSchedulesArePinned)
{
    expectPinned(GetParam(), 1);
}

// The width tasks of one leaf share its DAG and bound profile; on four
// threads they race for the first build and the last release.
TEST_P(WidthSweep, PinnedOnFourThreads)
{
    expectPinned(GetParam(), 4);
}

TEST(WidthSweep, LpfsOptionVariantsArePinned)
{
    for (const OptionPin &pin : kOptionPins) {
        Pin now = measure(pin);
        SCOPED_TRACE(std::string(pin.workload) + "/lpfs " + pin.variant +
                     " k=" + std::to_string(pin.k));
        EXPECT_EQ(now.totalCycles, pin.totalCycles);
        EXPECT_EQ(now.programHash, pin.programHash);
        EXPECT_EQ(now.leafHash, pin.leafHash);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WidthSweep,
                         ::testing::Values("bf", "bwt", "cn", "grovers",
                                           "gse", "sha1", "shors", "tfp"));

} // namespace
