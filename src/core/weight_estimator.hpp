// Per-service container-capacity estimation — paper Eq. 6 and §VI-A.
//
// Eq. 6 turns the three per-resource latency predictions {L_1, L_2, L_3}
// (from the latency surfaces at the current pressures and load) into a
// per-container processing capacity:
//
//     μ_n = 1 / ( Σ_i w_i · L_i + α )
//
// The weights w start pessimistic and are calibrated online by principal-
// component regression over heartbeat samples (features = surface
// predictions, target = observed service latency of queries mirrored to
// the serverless platform). Disabling the calibration gives the paper's
// Amoeba-NoM ablation: degradations on every resource are assumed to
// accumulate, which over-predicts latency and postpones profitable
// switches (paper Fig. 14/15).
//
// The fit is computed on read. observe() only marks refit points; the
// first read after one (mu, predict_service_time, weights) fits that
// point's window, so every read sees the model an eager refit at each
// point would have left, bit for bit. The controller observes every
// heartbeat but reads once per sample period, so most refit points are
// never fitted. An estimator belongs to one control loop on one thread:
// its const reads update the cached model.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "linalg/pca.hpp"

namespace amoeba::core {

inline constexpr std::size_t kNumResources = 3;  // cpu/mem, disk IO, network

using Features = std::array<double, kNumResources>;

struct WeightEstimatorConfig {
  bool enable_pca = true;         ///< false = Amoeba-NoM accumulation mode
  std::size_t min_samples = 24;   ///< PCR needs this many heartbeats
  std::size_t max_samples = 512;  ///< sliding window of heartbeats
  double min_explained = 0.95;    ///< PCA variance retention (paper: "most")
  double ridge = 1e-8;
  /// Clamp surface-predicted latencies to this value (seconds) before they
  /// enter the regression. Saturated profiling cells carry sentinel values
  /// orders of magnitude above the operating regime; unclamped they swamp
  /// the linear fit, and any latency beyond the cap rejects the deployment
  /// regardless. 0 = no clamp. The controller defaults this to 4x the
  /// service's QoS target.
  double feature_cap_s = 0.0;
  /// A refit point falls every `refit_interval` new samples once the
  /// window is primed. A read fits the latest point's window, once.
  std::size_t refit_interval = 8;
};

class WeightEstimator {
 public:
  /// `solo_latency` is L0, the uncontended service latency; `alpha` the
  /// fixed execution overhead in Eq. 6.
  WeightEstimator(WeightEstimatorConfig cfg, double solo_latency,
                  double alpha);

  /// Record one heartbeat observation: the surface-predicted latencies and
  /// the actually observed service latency (both seconds).
  void observe(const Features& predicted, double observed_latency);

  /// Predicted service time Σ w_i L_i + α (or the NoM accumulation when
  /// PCA is disabled or not yet primed).
  [[nodiscard]] double predict_service_time(const Features& predicted) const;

  /// μ_n = 1 / predict_service_time (Eq. 6).
  [[nodiscard]] double mu(const Features& predicted) const;

  /// Current weights; empty optional until the first refit point.
  [[nodiscard]] std::optional<std::array<double, kNumResources>> weights()
      const;

  [[nodiscard]] bool calibrated() const noexcept { return refits_ > 0; }
  [[nodiscard]] std::size_t samples() const noexcept {
    return ys_.size() - head_;
  }
  /// Refit points passed: the fits an eager estimator would have run.
  [[nodiscard]] std::size_t refits() const noexcept { return refits_; }
  /// PCR fits actually computed (at most one per refit point).
  [[nodiscard]] std::size_t fits() const noexcept { return fits_; }
  [[nodiscard]] double solo_latency() const noexcept { return l0_; }

 private:
  void maybe_mark_refit();
  /// Fit the window of the latest refit point unless a read already has.
  void fit_pending() const;
  [[nodiscard]] double accumulate_prediction(const Features& f) const;
  [[nodiscard]] Features clamped(const Features& f) const;

  WeightEstimatorConfig cfg_;
  double l0_;
  double alpha_;
  // The sliding window is rows [head_, ys_.size()) of xs_ (row-major,
  // kNumResources per row) and ys_, oldest first, so a refit reads it in
  // place through a linalg::MatrixView. Evicting a row only advances
  // head_; once the buffers hold two windows' worth, the live rows move
  // back to the front (one copy per max_samples observations) and the
  // storage is reused from then on.
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::size_t head_ = 0;
  // The latest refit point's window when no read has fitted it yet: rows
  // [pending_head_, pending_head_ + pending_rows_) of xs_/ys_, or all of
  // pending_xs_/pending_ys_ once a compaction was about to move them.
  mutable bool pending_ = false;
  bool pending_copied_ = false;
  std::size_t pending_head_ = 0;
  std::size_t pending_rows_ = 0;
  std::vector<double> pending_xs_;
  std::vector<double> pending_ys_;
  mutable std::optional<linalg::PcrModel> model_;
  std::size_t since_refit_ = 0;
  std::size_t refits_ = 0;
  mutable std::size_t fits_ = 0;
};

}  // namespace amoeba::core
