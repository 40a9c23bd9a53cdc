// Principal Component Analysis and Principal Component Regression.
//
// The multi-resource contention monitor (paper §VI-A) uses PCA to merge
// closely-related per-resource interference signals into a few pairwise-
// uncorrelated components, then regresses observed latency on component
// scores and maps the coefficients back to per-resource weights for Eq. 6.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace amoeba::linalg {

struct PcaModel {
  std::vector<double> means;          ///< feature means (size d)
  std::vector<double> scales;         ///< feature std-devs used to standardize
  std::vector<double> eigenvalues;    ///< descending, size d
  Matrix components;                  ///< d×d; column i = i-th component
  std::size_t retained = 0;           ///< components kept

  /// Fraction of total variance explained by the first `retained`
  /// components.
  [[nodiscard]] double explained_variance() const;

  /// Project a raw observation onto the retained components.
  [[nodiscard]] std::vector<double> transform(
      const std::vector<double>& x) const;
};

/// Fit PCA on row-major samples (n×d, n >= 2). Features are standardized
/// (zero mean, unit variance; zero-variance features are passed through
/// unscaled). `min_explained` in (0, 1] selects how many components to
/// retain.
[[nodiscard]] PcaModel fit_pca(MatrixView samples,
                               double min_explained = 0.95);

struct PcrModel {
  PcaModel pca;
  std::vector<double> score_coeffs;  ///< regression coeffs in PC space
  double intercept = 0.0;

  /// intercept + scoresᵀ·score_coeffs for a raw observation; allocates
  /// nothing.
  [[nodiscard]] double predict(std::span<const double> x) const;
  [[nodiscard]] double predict(const std::vector<double>& x) const {
    return predict(std::span<const double>(x));
  }

  /// Equivalent coefficients in the original feature space, i.e. β such
  /// that prediction ≈ intercept_raw + βᵀx. This is what becomes the
  /// per-resource weights w in Eq. 6.
  [[nodiscard]] std::vector<double> raw_coefficients() const;
  [[nodiscard]] double raw_intercept() const;
};

/// Principal-component regression of y on X (n×d, n >= d+1 recommended):
/// fit PCA, then solve the k×k ridge normal equations of the centred y on
/// the retained scores. `ridge >= 0`; a small positive value guards a
/// singular score matrix (e.g. an all-constant window).
[[nodiscard]] PcrModel fit_pcr(MatrixView x, std::span<const double> y,
                               double min_explained = 0.95,
                               double ridge = 1e-8);

}  // namespace amoeba::linalg
