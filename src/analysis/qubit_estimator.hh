/**
 * @file
 * Forwarding name: QubitEstimator is the merged hierarchical estimator
 * (analysis/resource_estimator.hh).
 */

#ifndef MSQ_ANALYSIS_QUBIT_ESTIMATOR_HH
#define MSQ_ANALYSIS_QUBIT_ESTIMATOR_HH

#include "analysis/resource_estimator.hh"

namespace msq {

using QubitEstimator = ResourceEstimator;

} // namespace msq

#endif // MSQ_ANALYSIS_QUBIT_ESTIMATOR_HH
