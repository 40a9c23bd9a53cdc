#include "linalg/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.hpp"

namespace amoeba::linalg {
namespace {

Matrix correlated_samples(std::size_t n, sim::Rng& rng) {
  // x2 = 2 x1 + noise, x3 independent: effectively 2 latent dimensions.
  Matrix x(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.normal(0.0, 1.0);
    x(i, 0) = a;
    x(i, 1) = 2.0 * a + rng.normal(0.0, 0.05);
    x(i, 2) = rng.normal(0.0, 1.0);
  }
  return x;
}

TEST(Pca, CorrelatedFeaturesCollapseToFewComponents) {
  sim::Rng rng(31);
  const Matrix x = correlated_samples(2000, rng);
  const PcaModel m = fit_pca(x, 0.95);
  // Two latent factors explain essentially everything.
  EXPECT_LE(m.retained, 2u);
  EXPECT_GE(m.explained_variance(), 0.95);
}

TEST(Pca, EigenvaluesSumToDimensionForStandardizedData) {
  sim::Rng rng(32);
  const Matrix x = correlated_samples(2000, rng);
  const PcaModel m = fit_pca(x, 1.0);
  double sum = 0.0;
  for (double v : m.eigenvalues) sum += v;
  // Correlation matrix has trace d.
  EXPECT_NEAR(sum, 3.0, 1e-6);
}

TEST(Pca, TransformScoresAreDecorrelated) {
  sim::Rng rng(33);
  const Matrix x = correlated_samples(3000, rng);
  const PcaModel m = fit_pca(x, 1.0);
  // Accumulate score covariance.
  double s00 = 0, s01 = 0, s11 = 0, m0 = 0, m1 = 0;
  const auto n = x.rows();
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = m.transform(x.row_vector(i));
    m0 += s[0];
    m1 += s[1];
  }
  m0 /= static_cast<double>(n);
  m1 /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = m.transform(x.row_vector(i));
    s00 += (s[0] - m0) * (s[0] - m0);
    s01 += (s[0] - m0) * (s[1] - m1);
    s11 += (s[1] - m1) * (s[1] - m1);
  }
  // Pairwise uncorrelated (paper §VI-A): correlation ~ 0.
  const double corr = s01 / std::sqrt(s00 * s11);
  EXPECT_NEAR(corr, 0.0, 0.02);
}

TEST(Pca, ZeroVarianceFeatureHandled) {
  Matrix x(50, 2);
  sim::Rng rng(34);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = 7.0;  // constant
  }
  const PcaModel m = fit_pca(x, 0.95);
  EXPECT_GE(m.retained, 1u);
  // Transform of any point is finite.
  const auto s = m.transform({0.5, 7.0});
  for (double v : s) EXPECT_TRUE(std::isfinite(v));
}

TEST(Pca, RequiresTwoSamples) {
  Matrix x(1, 2);
  EXPECT_THROW((void)fit_pca(x), ContractError);
}

TEST(Pcr, RecoversLinearModelOnCorrelatedFeatures) {
  sim::Rng rng(35);
  const std::size_t n = 2000;
  Matrix x = correlated_samples(n, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 4.0 + 1.0 * x(i, 0) + 0.5 * x(i, 1) + 2.0 * x(i, 2) +
           rng.normal(0.0, 0.01);
  }
  const PcrModel m = fit_pcr(x, y, 0.999);
  // Prediction accuracy is what matters (correlated coefficients are not
  // identifiable individually).
  double max_err = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto xi = x.row_vector(i);
    max_err = std::max(max_err, std::abs(m.predict(xi) - y[i]));
  }
  EXPECT_LT(max_err, 0.2);
}

TEST(Pcr, RawCoefficientsMatchPrediction) {
  sim::Rng rng(36);
  const Matrix x = correlated_samples(500, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = 1.0 + x(i, 0) - x(i, 2);
  }
  const PcrModel m = fit_pcr(x, y, 0.999);
  const auto beta = m.raw_coefficients();
  const double b0 = m.raw_intercept();
  for (std::size_t i = 0; i < 50; ++i) {
    const auto xi = x.row_vector(i);
    const double via_raw = b0 + dot(beta, xi);
    EXPECT_NEAR(via_raw, m.predict(xi), 1e-9);
  }
}

TEST(Pcr, InterceptOnlyData) {
  Matrix x(100, 2);
  std::vector<double> y(100, 5.0);
  sim::Rng rng(37);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  const PcrModel m = fit_pcr(x, y, 0.95, 1e-6);
  EXPECT_NEAR(m.predict({0.5, 0.5}), 5.0, 1e-6);
}

TEST(Pcr, RidgeRescuesConstantWindow) {
  // Every column constant: all scores are zero, so the normal equations
  // SᵀS are singular and only the ridge keeps them positive definite.
  Matrix x(40, 3);
  std::vector<double> y(40);
  sim::Rng rng(38);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = 0.5;
    x(i, 1) = 1.5;
    x(i, 2) = 4.0;
    y[i] = rng.uniform(0.2, 0.4);
  }
  const PcrModel m = fit_pcr(x, y, 0.95, 1e-8);
  ASSERT_EQ(m.score_coeffs.size(), 1u);
  EXPECT_EQ(m.score_coeffs[0], 0.0);
  EXPECT_EQ(m.predict({0.5, 1.5, 4.0}), m.intercept);
  EXPECT_THROW((void)fit_pcr(x, y, 0.95, 0.0), ContractError);
}

}  // namespace
}  // namespace amoeba::linalg
