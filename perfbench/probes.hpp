// Layer probes: per-call cost of the simulator's hot primitives, timed at
// the sizes a workload's own run reached (granted n_max, peak pool
// containers), not at hand-picked constants.
#pragma once

#include <cstdint>

#include "core/weight_estimator.hpp"

namespace perfbench {

struct ProbeSizes {
  /// Servers in the λ_max solve: the largest container grant of the run.
  int n_max = 1;
  /// Concurrent fair-share streams and pending engine events: the run's
  /// peak pool occupancy (one CPU stream and one completion per container).
  int streams = 1;
  /// Service model of the tenant holding the largest grant.
  double solo_latency_s = 0.1;
  double qos_target_s = 0.2;
  /// The controller's own estimator configuration (window, refit cadence).
  amoeba::core::WeightEstimatorConfig estimator;
  /// The serverless node's CPU, which the fair-share probe divides.
  double cores = 1.0;
  double cpu_interference = 0.0;
};

struct ProbeResults {
  double pcr_refit_us = 0.0;        ///< WeightEstimator::observe per refit
  std::uint64_t pcr_refits = 0;     ///< refits() counted over the probe
  double max_arrival_rate_us = 0.0; ///< queueing::max_arrival_rate per call
  double fit_pcr_us = 0.0;          ///< linalg::fit_pcr on a full window
  double fair_share_open_close_ns = 0.0;  ///< one open + close pair
  double schedule_fire_ns = 0.0;    ///< one Engine schedule + dispatch
};

/// Median-of-batches timings; inputs are drawn from `seed`.
[[nodiscard]] ProbeResults run_probes(const ProbeSizes& sizes,
                                      std::uint64_t seed);

}  // namespace perfbench
