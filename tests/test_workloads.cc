/**
 * @file
 * Tests for the benchmark generators: structural validity, determinism,
 * parameter scaling, and paper-anchored sanity checks (e.g. Table 1's
 * GSE qubit count, benchmark gate-count magnitudes).
 */

#include <gtest/gtest.h>

#include "support/logging.hh"

#include <set>
#include <sstream>

#include "analysis/resource_estimator.hh"
#include "frontend/qasm_emitter.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;
using namespace msq::workloads;

class ScaledWorkloads : public ::testing::TestWithParam<const char *>
{};

TEST_P(ScaledWorkloads, BuildsAndValidates)
{
    const auto &spec = findWorkload(scaledParams(), GetParam());
    Program prog = spec.build();
    prog.validate();
    ResourceEstimator res(prog);
    EXPECT_GT(res.programGates(), 100u);
    EXPECT_GT(res.programQubits(), 5u);
    EXPECT_LE(res.programCriticalPath(), res.programGates());
    EXPECT_GT(res.programCriticalPath(), 0u);
}

TEST_P(ScaledWorkloads, DeterministicBuilds)
{
    const auto &spec = findWorkload(scaledParams(), GetParam());
    Program p1 = spec.build();
    Program p2 = spec.build();
    std::ostringstream d1, d2;
    emitHierarchicalQasm(d1, p1);
    emitHierarchicalQasm(d2, p2);
    EXPECT_EQ(d1.str(), d2.str());
}

INSTANTIATE_TEST_SUITE_P(All, ScaledWorkloads,
                         ::testing::Values("bf", "bwt", "cn", "grovers",
                                           "gse", "sha1", "shors", "tfp"));

TEST(Workloads, RegistryComplete)
{
    EXPECT_EQ(paperParams().size(), 8u);
    EXPECT_EQ(scaledParams().size(), 8u);
    EXPECT_THROW(findWorkload(scaledParams(), "nope"), FatalError);
}

TEST(Workloads, MostlySerialCharacter)
{
    // Paper §4.2: "Many of our benchmarks are highly serial, with an
    // average critical path speedup of around 1.5x". Checks the
    // ensemble stays in a mostly-serial band.
    double total_ratio = 0;
    unsigned count = 0;
    for (const auto &spec : scaledParams()) {
        Program prog = spec.build();
        ResourceEstimator res(prog);
        double ratio = res.programGates().toDouble() /
                       static_cast<double>(res.programCriticalPath());
        EXPECT_GT(ratio, 1.0) << spec.name;
        EXPECT_LT(ratio, 10.0) << spec.name << " too parallel";
        total_ratio += ratio;
        ++count;
    }
    EXPECT_LT(total_ratio / count, 4.0);
}

TEST(Workloads, GsePaperQubitCount)
{
    // Table 1: GSE M=10 needs Q = 13 qubits.
    Program prog = buildGse(10, 20);
    EXPECT_EQ(ResourceEstimator(prog).programQubits(), 13u);
}

TEST(Workloads, GroversScalesWithN)
{
    Program small = buildGrovers(6);
    Program large = buildGrovers(12);
    EXPECT_GT(ResourceEstimator(large).programGates(),
              ResourceEstimator(small).programGates());
    EXPECT_GT(ResourceEstimator(large).programQubits(),
              ResourceEstimator(small).programQubits());
}

TEST(Workloads, BwtScalesWithSteps)
{
    Program short_walk = buildBwt(6, 10);
    Program long_walk = buildBwt(6, 100);
    const Count g_short = ResourceEstimator(short_walk).programGates();
    const Count g_long = ResourceEstimator(long_walk).programGates();
    // Walk gates scale ~linearly with s.
    EXPECT_GT(2 * g_long, 5 * g_short);
}

TEST(Workloads, ShorsHasManyDistinctRotations)
{
    // §5.4 / Table 2: Shor's is dominated by rotations with distinct
    // angles (QFT phases + Fourier-basis constant adds).
    Program prog = buildShors(6);
    std::set<double> angles;
    for (ModuleId id : prog.reachableModules()) {
        for (const auto &op : prog.module(id).ops())
            if (isRotationGate(op.kind))
                angles.insert(op.angle);
    }
    EXPECT_GT(angles.size(), 20u);
}

TEST(Workloads, Sha1SerialAdderStructure)
{
    Program prog = buildSha1(64, 8, 20);
    // SHA-1 is the most serial benchmark: low parallelism ratio.
    ResourceEstimator res(prog);
    double ratio = res.programGates().toDouble() /
                   static_cast<double>(res.programCriticalPath());
    EXPECT_LT(ratio, 3.0);
}

TEST(Workloads, PaperParamsEstimableWithoutUnrolling)
{
    // The paper's full-size instances (10^7..10^12+ gates) must be
    // analyzable hierarchically. Spot-check the two extremes.
    {
        Program prog = buildGrovers(40);
        const Count gates = ResourceEstimator(prog).programGates();
        EXPECT_GT(gates, uint64_t{100'000'000});
    }
    {
        Program prog = buildGse(10, 20);
        const Count gates = ResourceEstimator(prog).programGates();
        EXPECT_GT(gates, uint64_t{1'000'000});
    }
}

TEST(Workloads, InvalidParametersRejected)
{
    EXPECT_THROW(buildGrovers(1), FatalError);
    EXPECT_THROW(buildBwt(1, 0), FatalError);
    EXPECT_THROW(buildGse(0, 1), FatalError);
    EXPECT_THROW(buildTfp(2), FatalError);
    EXPECT_THROW(buildBooleanFormula(1, 1), FatalError);
    EXPECT_THROW(buildClassNumber(0), FatalError);
    EXPECT_THROW(buildSha1(64, 2, 2), FatalError);
    EXPECT_THROW(buildShors(2), FatalError);
}

TEST(Workloads, TfpHasIndependentCheckModules)
{
    // The oracle calls triple_check once per node triple (and once more
    // to uncompute): C(5,3) * 2 = 20 calls for n=5.
    Program prog = buildTfp(5);
    ModuleId oracle = prog.findModule("oracle");
    ASSERT_NE(oracle, invalidModule);
    unsigned calls = 0;
    for (const auto &op : prog.module(oracle).ops())
        if (op.isCall())
            ++calls;
    EXPECT_EQ(calls, 20u);
}

} // namespace
