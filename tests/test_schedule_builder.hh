/**
 * @file
 * Test-only builder for hand-placed leaf schedules: each step() lists
 * the (region, op) placements of one timestep, so a test can pin an
 * exact schedule instead of taking a scheduler's choice.
 */

#ifndef MSQ_TESTS_TEST_SCHEDULE_BUILDER_HH
#define MSQ_TESTS_TEST_SCHEDULE_BUILDER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "arch/schedule.hh"
#include "ir/module.hh"

namespace msq {
namespace test {

/** Hand-build a schedule placing each (op, region, step) explicitly. */
class TestScheduleBuilder
{
  public:
    TestScheduleBuilder(const Module &mod, unsigned k)
        : mod(&mod), builder(mod, k)
    {}

    TestScheduleBuilder &
    step(std::vector<std::pair<unsigned, uint32_t>> placements)
    {
        builder.beginStep();
        for (auto [region, op] : placements) {
            auto &slot = builder.slot(region);
            slot.kind = mod->op(op).kind;
            slot.ops.push_back(op);
        }
        builder.endStep();
        return *this;
    }

    LeafSchedule take() { return builder.finish(); }

  private:
    const Module *mod;
    ScheduleBuilder builder;
};

} // namespace test
} // namespace msq

#endif // MSQ_TESTS_TEST_SCHEDULE_BUILDER_HH
