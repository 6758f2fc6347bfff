/**
 * @file
 * Test-only whole-summary comparison: every additive counter, every peak
 * and every occupancy bucket of two ResourceSummaries, each mismatch
 * named. Tests that compare summaries go through it, so a counter in
 * ResourceSummary's member table cannot be left out of a comparison.
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
    for (const ResourceSummary::Member &m : ResourceSummary::members())
        EXPECT_EQ(m.of(a), m.of(b)) << m.name;
    EXPECT_EQ(a.occupancy, b.occupancy);
}

} // namespace test
} // namespace msq

#endif // MSQ_TESTS_EXPECT_SUMMARY_HH
