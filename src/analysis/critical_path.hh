/**
 * @file
 * Hierarchical critical-path estimation: the longest dependence chain
 * through a program, treating each call as an indivisible block of its
 * callee's critical path length times its repeat count. This is the
 * "estimated critical path" bound of paper Fig. 6. Lengths saturate at
 * 2^64-1, and no DepDag is built: each module takes one frontier sweep
 * (criticalPathLength in ir/dag.hh).
 */

#ifndef MSQ_ANALYSIS_CRITICAL_PATH_HH
#define MSQ_ANALYSIS_CRITICAL_PATH_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"

namespace msq {

/** Per-module hierarchical critical path lengths (in gate cycles). */
class CriticalPathAnalysis
{
  public:
    /** Analyze all modules reachable from @p prog's entry. */
    explicit CriticalPathAnalysis(const Program &prog);

    /** Critical path (cycles) of one invocation of module @p id. */
    uint64_t criticalPath(ModuleId id) const;

    /** Critical path of the whole program. */
    uint64_t programCriticalPath() const;

  private:
    const Program *prog;
    std::vector<uint64_t> lengths; ///< indexed by ModuleId
};

} // namespace msq

#endif // MSQ_ANALYSIS_CRITICAL_PATH_HH
