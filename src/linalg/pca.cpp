#include "linalg/pca.hpp"

// The refit path below reproduces the straightforward per-column loops bit
// for bit (oracle: tests/linalg/pcr_reference.hpp; rules: DESIGN.md §8):
// every sum takes its terms in row order starting from 0.0, no sum is
// reassociated, and no division becomes a multiply by a reciprocal.

#include <cmath>
#include <numeric>

#include "linalg/jacobi_eigen.hpp"
#include "linalg/least_squares.hpp"

namespace amoeba::linalg {

double PcaModel::explained_variance() const {
  const double total =
      std::accumulate(eigenvalues.begin(), eigenvalues.end(), 0.0);
  if (total <= 0.0) return 1.0;
  double kept = 0.0;
  for (std::size_t i = 0; i < retained; ++i) kept += eigenvalues[i];
  return kept / total;
}

std::vector<double> PcaModel::transform(const std::vector<double>& x) const {
  AMOEBA_EXPECTS(x.size() == means.size());
  const std::size_t d = means.size();
  std::vector<double> z(d);
  for (std::size_t i = 0; i < d; ++i) {
    z[i] = (x[i] - means[i]) / scales[i];
  }
  std::vector<double> scores(retained, 0.0);
  for (std::size_t c = 0; c < retained; ++c) {
    for (std::size_t i = 0; i < d; ++i) scores[c] += components(i, c) * z[i];
  }
  return scores;
}

namespace {

/// The passes of fit_pca: column means, two-pass variances, then the
/// standardised values (left in `z`, n×d row-major, for fit_pcr's score
/// pass) and the upper triangle of their correlation matrix. Each sum runs
/// down one column in a local accumulator, and every value is standardised
/// exactly once.
Matrix standardise(MatrixView samples, PcaModel& model,
                   std::vector<double>& z) {
  const std::size_t n = samples.rows();
  const std::size_t d = samples.cols();
  const auto nd = static_cast<double>(n);
  const auto n1 = static_cast<double>(n - 1);

  model.means.assign(d, 0.0);
  model.scales.assign(d, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += samples(i, j);
    const double mean = sum / nd;
    double s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dev = samples(i, j) - mean;
      s2 += dev * dev;
    }
    const double v = s2 / n1;
    model.means[j] = mean;
    if (v > 1e-24) model.scales[j] = std::sqrt(v);
  }

  z.resize(n * d);
  for (std::size_t j = 0; j < d; ++j) {
    const double mean = model.means[j];
    const double scale = model.scales[j];
    for (std::size_t i = 0; i < n; ++i)
      z[i * d + j] = (samples(i, j) - mean) / scale;
  }

  Matrix corr(d, d);
  for (std::size_t a = 0; a < d; ++a)
    for (std::size_t b = a; b < d; ++b) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum += z[i * d + a] * z[i * d + b];
      corr(a, b) = sum / n1;
      corr(b, a) = corr(a, b);
    }
  return corr;
}

/// fit_pca that also leaves the standardised samples in `z`.
PcaModel fit_pca_standardised(MatrixView samples, double min_explained,
                              std::vector<double>& z) {
  AMOEBA_EXPECTS(samples.rows() >= 2);
  AMOEBA_EXPECTS(min_explained > 0.0 && min_explained <= 1.0);
  const std::size_t d = samples.cols();

  PcaModel model;
  const Matrix corr = standardise(samples, model, z);

  EigenDecomposition eig = jacobi_eigen(corr);
  // A correlation matrix is positive semi-definite: anything below a tiny
  // rounding margin signals a broken decomposition, not noise. Clamp only
  // the rounding dust.
  for (auto& v : eig.values) {
    AMOEBA_INVARIANT_VALS(v >= -1e-8 * static_cast<double>(d), v, d);
    v = std::max(v, 0.0);
  }
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    AMOEBA_INVARIANT_MSG(eig.values[i] <= eig.values[i - 1],
                         "eigenvalues must be sorted descending");
  }

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
  AMOEBA_ENSURES_VALS(model.retained >= 1 && model.retained <= d,
                      model.retained, d);
  const double explained = model.explained_variance();
  AMOEBA_ENSURES_VALS(explained >= 0.0 && explained <= 1.0 + 1e-12, explained);
  return model;
}

}  // namespace

PcaModel fit_pca(MatrixView samples, double min_explained) {
  std::vector<double> z;
  return fit_pca_standardised(samples, min_explained, z);
}

double PcrModel::predict(std::span<const double> x) const {
  AMOEBA_EXPECTS(x.size() == pca.means.size());
  AMOEBA_EXPECTS(score_coeffs.size() == pca.retained);
  // intercept + dot(pca.transform(x), score_coeffs) without the two
  // temporaries: the standardised value is recomputed per component (the
  // same division, so the same double) rather than stored.
  double s = 0.0;
  for (std::size_t c = 0; c < pca.retained; ++c) {
    double score = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      score += pca.components(i, c) * ((x[i] - pca.means[i]) / pca.scales[i]);
    }
    s += score * score_coeffs[c];
  }
  return intercept + s;
}

std::vector<double> PcrModel::raw_coefficients() const {
  const std::size_t d = pca.means.size();
  std::vector<double> beta(d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t c = 0; c < pca.retained; ++c) {
      beta[i] += pca.components(i, c) * score_coeffs[c];
    }
    beta[i] /= pca.scales[i];
  }
  return beta;
}

double PcrModel::raw_intercept() const {
  const auto beta = raw_coefficients();
  return intercept - dot(beta, pca.means);
}

namespace {

/// The normal equations of the centred y on the scores S = Z·W of the k
/// retained components: `normal` = SᵀS + ridge·I (the full k×k, each row
/// skipped where its s_a is zero, as the dense product AᵀA did) and `rhs`
/// = Sᵀ(y − ȳ).
void normal_equations(const PcaModel& pca, const std::vector<double>& z,
                      std::span<const double> y, double ymean, double ridge,
                      Matrix& normal, std::vector<double>& rhs) {
  const std::size_t n = y.size();
  const std::size_t d = pca.means.size();
  const std::size_t k = pca.retained;
  AMOEBA_EXPECTS(z.size() == n * d);

  std::vector<double> scores(n * k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) {
      double score = 0.0;
      for (std::size_t j = 0; j < d; ++j)
        score += pca.components(j, c) * z[i * d + j];
      scores[i * k + c] = score;
    }

  normal = Matrix(k, k);
  rhs.assign(k, 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double sa = scores[i * k + a];
        if (sa != 0.0) sum += sa * scores[i * k + b];
      }
      normal(a, b) = sum;
    }
    normal(a, a) += ridge;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      sum += scores[i * k + a] * (y[i] - ymean);
    rhs[a] = sum;
  }
}

}  // namespace

PcrModel fit_pcr(MatrixView x, std::span<const double> y,
                 double min_explained, double ridge) {
  AMOEBA_EXPECTS(x.rows() == y.size());
  AMOEBA_EXPECTS(x.rows() >= 2);
  AMOEBA_EXPECTS(ridge >= 0.0);

  PcrModel model;
  std::vector<double> z;
  model.pca = fit_pca_standardised(x, min_explained, z);

  double ymean = 0.0;
  for (double v : y) ymean += v;
  ymean /= static_cast<double>(y.size());

  Matrix normal;
  std::vector<double> rhs;
  normal_equations(model.pca, z, y, ymean, ridge, normal, rhs);
  model.score_coeffs = solve_spd(normal, rhs);
  model.intercept = ymean;
  return model;
}

}  // namespace amoeba::linalg
