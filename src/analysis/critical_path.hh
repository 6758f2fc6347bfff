/**
 * @file
 * Forwarding name: CriticalPathAnalysis is the merged hierarchical estimator
 * (analysis/resource_estimator.hh).
 */

#ifndef MSQ_ANALYSIS_CRITICAL_PATH_HH
#define MSQ_ANALYSIS_CRITICAL_PATH_HH

#include "analysis/resource_estimator.hh"

namespace msq {

using CriticalPathAnalysis = ResourceEstimator;

} // namespace msq

#endif // MSQ_ANALYSIS_CRITICAL_PATH_HH
