// Frozen reference copy of the original PCR refit path, kept as a bitwise
// test oracle for the allocation-free one in src/linalg/pca.cpp and
// src/core/weight_estimator.cpp.
//
// Everything here is the straightforward version the fast path replaced:
// standardisation recomputed per correlation term, a per-row transform()
// that allocates its scores, least squares through an explicit transpose,
// product and matrix-vector apply, and a deque window copied into a fresh
// Matrix on every refit. Do not optimise it; its only job is to be the
// arithmetic the fast path must reproduce bit for bit. Only jacobi_eigen
// and solve_spd are shared with the library.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <deque>
#include <numeric>
#include <optional>
#include <vector>

#include "core/weight_estimator.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pca.hpp"

namespace amoeba::linalg::reference {

inline std::vector<double> transform(const PcaModel& m,
                                     const std::vector<double>& x) {
  const std::size_t d = m.means.size();
  std::vector<double> z(d);
  for (std::size_t i = 0; i < d; ++i) z[i] = (x[i] - m.means[i]) / m.scales[i];
  std::vector<double> scores(m.retained, 0.0);
  for (std::size_t c = 0; c < m.retained; ++c) {
    for (std::size_t i = 0; i < d; ++i) scores[c] += m.components(i, c) * z[i];
  }
  return scores;
}

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

inline double predict(const PcrModel& m, const std::vector<double>& x) {
  return m.intercept + dot(transform(m.pca, x), m.score_coeffs);
}

inline std::vector<double> raw_coefficients(const PcrModel& m) {
  const std::size_t d = m.pca.means.size();
  std::vector<double> beta(d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t c = 0; c < m.pca.retained; ++c) {
      beta[i] += m.pca.components(i, c) * m.score_coeffs[c];
    }
    beta[i] /= m.pca.scales[i];
  }
  return beta;
}

inline PcaModel fit_pca(const Matrix& samples, double min_explained) {
  const std::size_t n = samples.rows();
  const std::size_t d = samples.cols();

  PcaModel model;
  model.means.assign(d, 0.0);
  model.scales.assign(d, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    double m = 0.0;
    for (std::size_t i = 0; i < n; ++i) m += samples(i, j);
    model.means[j] = m / static_cast<double>(n);
  }
  for (std::size_t j = 0; j < d; ++j) {
    double s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dev = samples(i, j) - model.means[j];
      s2 += dev * dev;
    }
    s2 /= static_cast<double>(n - 1);
    model.scales[j] = s2 > 1e-24 ? std::sqrt(s2) : 1.0;
  }

  Matrix corr(d, d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      const double za = (samples(i, a) - model.means[a]) / model.scales[a];
      for (std::size_t b = a; b < d; ++b) {
        const double zb = (samples(i, b) - model.means[b]) / model.scales[b];
        corr(a, b) += za * zb;
      }
    }
  }
  for (std::size_t a = 0; a < d; ++a)
    for (std::size_t b = a; b < d; ++b) {
      const double v = corr(a, b) / static_cast<double>(n - 1);
      corr(a, b) = v;
      corr(b, a) = v;
    }

  EigenDecomposition eig = jacobi_eigen(corr);
  for (auto& v : eig.values) v = std::max(v, 0.0);
  model.eigenvalues = eig.values;
  model.components = eig.vectors;

  const double total =
      std::accumulate(eig.values.begin(), eig.values.end(), 0.0);
  double kept = 0.0;
  model.retained = 0;
  for (std::size_t i = 0; i < d; ++i) {
    kept += eig.values[i];
    ++model.retained;
    if (total <= 0.0 || kept / total >= min_explained) break;
  }
  return model;
}

/// min ||A x - b||² + ridge ||x||² via AᵀA + ridge·I, spelled out as the
/// original transpose / product / apply sequence.
inline std::vector<double> solve_least_squares(const Matrix& a,
                                               const std::vector<double>& b,
                                               double ridge) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  Matrix at(d, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c) at(c, r) = a(r, c);
  Matrix ata(d, d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < d; ++j) ata(i, j) += aik * a(k, j);
    }
  }
  for (std::size_t i = 0; i < d; ++i) ata(i, i) += ridge;
  std::vector<double> atb(d, 0.0);
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < n; ++c) atb[r] += at(r, c) * b[c];
  return solve_spd(ata, atb);
}

inline PcrModel fit_pcr(const Matrix& x, const std::vector<double>& y,
                        double min_explained, double ridge) {
  PcrModel model;
  model.pca = reference::fit_pca(x, min_explained);
  const std::size_t n = x.rows();
  const std::size_t k = model.pca.retained;

  Matrix scores(n, k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = transform(model.pca, x.row_vector(i));
    for (std::size_t c = 0; c < k; ++c) scores(i, c) = s[c];
  }
  double ymean = 0.0;
  for (double v : y) ymean += v;
  ymean /= static_cast<double>(n);
  std::vector<double> yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - ymean;

  model.score_coeffs = reference::solve_least_squares(scores, yc, ridge);
  model.intercept = ymean;
  return model;
}

/// The original deque-window WeightEstimator: same observe / refit /
/// predict sequence, reference fit underneath.
class WeightEstimator {
 public:
  using Features = core::Features;
  static constexpr std::size_t kD = core::kNumResources;

  WeightEstimator(core::WeightEstimatorConfig cfg, double solo_latency,
                  double alpha)
      : cfg_(cfg), l0_(solo_latency), alpha_(alpha) {}

  void observe(const Features& predicted, double observed_latency) {
    window_.push_back(Sample{clamped(predicted), observed_latency});
    while (window_.size() > cfg_.max_samples) window_.pop_front();
    ++since_refit_;
    maybe_refit();
  }

  [[nodiscard]] double predict_service_time(const Features& raw) const {
    const Features f = clamped(raw);
    if (!model_.has_value()) return accumulate_prediction(f);
    double p = predict(*model_, std::vector<double>(f.begin(), f.end()));
    if (cfg_.feature_cap_s > 0.0) {
      for (std::size_t i = 0; i < kD; ++i) {
        if (raw[i] >= cfg_.feature_cap_s) {
          p = std::max(p, accumulate_prediction(f));
          break;
        }
      }
    }
    return std::max(p, l0_ + alpha_);
  }

  [[nodiscard]] std::optional<std::array<double, kD>> weights() const {
    if (!model_.has_value()) return std::nullopt;
    const auto beta = raw_coefficients(*model_);
    std::array<double, kD> w{};
    std::copy(beta.begin(), beta.end(), w.begin());
    return w;
  }

  [[nodiscard]] const std::optional<PcrModel>& model() const { return model_; }
  [[nodiscard]] std::size_t samples() const { return window_.size(); }
  [[nodiscard]] std::size_t refits() const { return refits_; }

 private:
  struct Sample {
    Features x;
    double y;
  };

  void maybe_refit() {
    if (!cfg_.enable_pca) return;
    if (window_.size() < cfg_.min_samples) return;
    if (model_.has_value() && since_refit_ < cfg_.refit_interval) return;
    since_refit_ = 0;
    Matrix x(window_.size(), kD);
    std::vector<double> y(window_.size());
    for (std::size_t i = 0; i < window_.size(); ++i) {
      for (std::size_t j = 0; j < kD; ++j) x(i, j) = window_[i].x[j];
      y[i] = window_[i].y;
    }
    model_ = reference::fit_pcr(x, y, cfg_.min_explained, cfg_.ridge);
    ++refits_;
  }

  [[nodiscard]] double accumulate_prediction(const Features& f) const {
    double service = l0_;
    for (double li : f) service += std::max(0.0, li - l0_);
    return service + alpha_;
  }

  [[nodiscard]] Features clamped(const Features& f) const {
    if (cfg_.feature_cap_s <= 0.0) return f;
    Features out = f;
    for (double& v : out) v = std::min(v, cfg_.feature_cap_s);
    return out;
  }

  core::WeightEstimatorConfig cfg_;
  double l0_;
  double alpha_;
  std::deque<Sample> window_;
  std::optional<PcrModel> model_;
  std::size_t since_refit_ = 0;
  std::size_t refits_ = 0;
};

}  // namespace amoeba::linalg::reference
