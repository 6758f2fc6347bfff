/**
 * @file
 * Test-only whole-summary comparison: every additive counter, every peak
 * and every occupancy bucket of two ResourceSummaries, each mismatch
 * named. Tests that compare summaries go through it, so moving a counter
 * between ResourceSummary's tables cannot drop it from a comparison.
 */

#ifndef MSQ_TESTS_EXPECT_SUMMARY_HH
#define MSQ_TESTS_EXPECT_SUMMARY_HH

#include <gtest/gtest.h>

#include "analysis/schedule_summary.hh"

namespace msq {
namespace test {

inline void
expectSameSummary(const ResourceSummary &a, const ResourceSummary &b)
{
    for (const ResourceSummary::Field &f : ResourceSummary::fields())
        EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
    for (const ResourceSummary::Peak &f : ResourceSummary::peaks())
        EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
    EXPECT_EQ(a.occupancy, b.occupancy);
}

} // namespace test
} // namespace msq

#endif // MSQ_TESTS_EXPECT_SUMMARY_HH
