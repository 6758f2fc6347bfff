/**
 * @file
 * Test-only check of a movement-annotated leaf schedule: its compute
 * steps pass validateLeafSchedule (which panics on the first violation)
 * and its movement plan replays through checkCommSchedule with no
 * diagnostic of any severity, so an M005 or M008 warning fails the test
 * as an error does.
 */

#ifndef MSQ_TESTS_EXPECT_CLEAN_PLAN_HH
#define MSQ_TESTS_EXPECT_CLEAN_PLAN_HH

#include <gtest/gtest.h>

#include "sched/validator.hh"
#include "verify/comm_checker.hh"

namespace msq {
namespace test {

inline void
expectCleanPlan(const LeafSchedule &sched, const MultiSimdArch &arch)
{
    validateLeafSchedule(sched, arch);
    DiagnosticEngine diags;
    checkCommSchedule(sched, arch, diags);
    for (const Diagnostic &diag : diags.diagnostics())
        ADD_FAILURE() << diag.format();
}

} // namespace test
} // namespace msq

#endif // MSQ_TESTS_EXPECT_CLEAN_PLAN_HH
