#include "core/weight_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace amoeba::core {

WeightEstimator::WeightEstimator(WeightEstimatorConfig cfg, double solo_latency,
                                 double alpha)
    : cfg_(cfg), l0_(solo_latency), alpha_(alpha) {
  AMOEBA_EXPECTS(solo_latency > 0.0);
  AMOEBA_EXPECTS(alpha >= 0.0);
  AMOEBA_EXPECTS(cfg.min_samples >= kNumResources + 1);
  AMOEBA_EXPECTS(cfg.max_samples >= cfg.min_samples);
  AMOEBA_EXPECTS(cfg.min_explained > 0.0 && cfg.min_explained <= 1.0);
  AMOEBA_EXPECTS(cfg.refit_interval >= 1);
}

Features WeightEstimator::clamped(const Features& f) const {
  if (cfg_.feature_cap_s <= 0.0) return f;
  Features out = f;
  for (double& v : out) v = std::min(v, cfg_.feature_cap_s);
  return out;
}

void WeightEstimator::observe(const Features& predicted,
                              double observed_latency) {
  AMOEBA_EXPECTS(observed_latency > 0.0);
  for (double v : predicted) AMOEBA_EXPECTS(v >= 0.0);
  if (ys_.size() == 2 * cfg_.max_samples) {
    // The compaction below moves rows an unread refit point still needs:
    // keep that window as it is now.
    if (pending_ && !pending_copied_) {
      const double* x = xs_.data() + pending_head_ * kNumResources;
      const double* y = ys_.data() + pending_head_;
      pending_xs_.assign(x, x + pending_rows_ * kNumResources);
      pending_ys_.assign(y, y + pending_rows_);
      pending_copied_ = true;
    }
    xs_.erase(xs_.begin(),
              xs_.begin() + static_cast<std::ptrdiff_t>(head_ * kNumResources));
    ys_.erase(ys_.begin(), ys_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const Features x = clamped(predicted);
  xs_.insert(xs_.end(), x.begin(), x.end());
  ys_.push_back(observed_latency);
  if (samples() > cfg_.max_samples) ++head_;
  AMOEBA_INVARIANT(samples() <= cfg_.max_samples &&
                   ys_.size() <= 2 * cfg_.max_samples);
  ++since_refit_;
  maybe_mark_refit();
}

void WeightEstimator::maybe_mark_refit() {
  if (!cfg_.enable_pca) return;
  const std::size_t n = samples();
  if (n < cfg_.min_samples) return;
  if (calibrated() && since_refit_ < cfg_.refit_interval) return;
  since_refit_ = 0;
  pending_ = true;
  pending_copied_ = false;
  pending_head_ = head_;
  pending_rows_ = n;
  ++refits_;
}

void WeightEstimator::fit_pending() const {
  if (!pending_) return;
  const double* x = pending_copied_
                        ? pending_xs_.data()
                        : xs_.data() + pending_head_ * kNumResources;
  const double* y =
      pending_copied_ ? pending_ys_.data() : ys_.data() + pending_head_;
  model_ = linalg::fit_pcr(linalg::MatrixView(x, pending_rows_, kNumResources),
                           std::span<const double>(y, pending_rows_),
                           cfg_.min_explained, cfg_.ridge);
  pending_ = false;
  ++fits_;
}

double WeightEstimator::accumulate_prediction(const Features& f) const {
  // Amoeba-NoM: assume each resource's degradation adds on top of L0
  // (paper §VII-C: "pessimistically assume that the QoS degradations ...
  // are accumulated").
  double service = l0_;
  for (double li : f) service += std::max(0.0, li - l0_);
  return service + alpha_;
}

double WeightEstimator::predict_service_time(const Features& raw) const {
  const Features f = clamped(raw);
  if (!calibrated()) return accumulate_prediction(f);
  fit_pending();
  double p = model_->predict(f);
  // If any surface hit the cap, the operating point is outside the
  // calibrated regime: take the pessimistic max of the regression and the
  // accumulation prediction so saturation is never explained away.
  if (cfg_.feature_cap_s > 0.0) {
    for (std::size_t i = 0; i < kNumResources; ++i) {
      if (raw[i] >= cfg_.feature_cap_s) {
        p = std::max(p, accumulate_prediction(f));
        break;
      }
    }
  }
  // A regression extrapolating into thin data can under-shoot physics:
  // never predict below the uncontended floor.
  p = std::max(p, l0_ + alpha_);
  AMOEBA_ENSURES_VALS(p > 0.0 && std::isfinite(p), p);
  return p;
}

double WeightEstimator::mu(const Features& f) const {
  const double m = 1.0 / predict_service_time(f);
  // μ feeds the M/M/N discriminant directly; a non-positive or non-finite
  // rate would invalidate every downstream stability check.
  AMOEBA_ENSURES_VALS(m > 0.0 && std::isfinite(m), m);
  return m;
}

std::optional<std::array<double, kNumResources>> WeightEstimator::weights()
    const {
  if (!calibrated()) return std::nullopt;
  fit_pending();
  const auto beta = model_->raw_coefficients();
  AMOEBA_ASSERT(beta.size() == kNumResources);
  std::array<double, kNumResources> w{};
  std::copy(beta.begin(), beta.end(), w.begin());
  return w;
}

}  // namespace amoeba::core
