/**
 * @file
 * Tests over the shipped example Scaffold programs: each must parse,
 * validate, survive the full toolflow under every scheduler, and — for
 * the purely classical-reversible ones — compute the right answer on
 * the classical simulator. Also covers the toolflow's optional
 * inverse-cancellation stage.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/resource_estimator.hh"
#include "core/toolflow.hh"
#include "frontend/parser.hh"
#include "reversible_sim.hh"
#include "support/logging.hh"

#ifndef MSQ_SOURCE_DIR
#define MSQ_SOURCE_DIR "."
#endif

namespace {

using namespace msq;

std::string
programPath(const std::string &name)
{
    return std::string(MSQ_SOURCE_DIR) + "/examples/programs/" + name;
}

class ExamplePrograms : public ::testing::TestWithParam<const char *>
{};

TEST_P(ExamplePrograms, ParsesAndCompiles)
{
    Program prog = parseScaffoldFile(programPath(GetParam()));
    prog.validate();
    EXPECT_GT(ResourceEstimator(prog).programGates(), 5u);

    for (SchedulerKind kind : {SchedulerKind::Sequential,
                               SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
        Program fresh = parseScaffoldFile(programPath(GetParam()));
        ToolflowConfig config;
        config.scheduler = kind;
        config.arch = MultiSimdArch(4, unbounded, 4);
        config.commMode = CommMode::GlobalWithLocalMem;
        config.rotations.sequenceLength = 30;
        ToolflowResult result = Toolflow(config).run(fresh);
        EXPECT_GT(result.scheduledCycles, 0u) << GetParam();
        EXPECT_GE(result.scheduledCycles, result.criticalPath)
            << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Files, ExamplePrograms,
                         ::testing::Values("teleport.scaffold",
                                           "qft8.scaffold",
                                           "adder4.scaffold",
                                           "grover3.scaffold"),
                         [](const auto &info) {
                             std::string name = info.param;
                             return name.substr(0, name.find('.'));
                         });

TEST(ExamplePrograms, Adder4ComputesCorrectSum)
{
    // The adder program is purely classical-reversible: flatten it and
    // simulate. main loads a=5, b=9 and adds a three times: b = 9+15=24
    // mod 16 = 8.
    Program prog = parseScaffoldFile(programPath("adder4.scaffold"));
    FlattenPass(100000).run(prog);
    const Module &main_mod = prog.module(prog.entry());
    ASSERT_TRUE(main_mod.isLeaf());

    std::vector<bool> state(main_mod.numQubits(), false);
    auto out = test::simulateReversible(main_mod, state);
    // b occupies qubits 4..7 (second declared register).
    std::vector<QubitId> b = {4, 5, 6, 7};
    EXPECT_EQ(test::readRegister(out, b), (9u + 3 * 5u) % 16u);
    // a restored by the UMA ripple.
    std::vector<QubitId> a = {0, 1, 2, 3};
    EXPECT_EQ(test::readRegister(out, a), 5u);
}

} // namespace
