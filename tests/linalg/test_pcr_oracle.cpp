// Bitwise oracle for the PCR refit path: the library's fit_pca / fit_pcr /
// PcrModel and core::WeightEstimator must reproduce the frozen reference in
// pcr_reference.hpp bit for bit, on every double. Any reassociated sum,
// reciprocal multiply or fused multiply-add shows up here as a mismatch,
// long before it would move a trace hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/weight_estimator.hpp"
#include "linalg/pca.hpp"
#include "pcr_reference.hpp"
#include "sim/random.hpp"

namespace amoeba::linalg {
namespace {

::testing::AssertionResult same_bits(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got " << got << " want " << want << " (bits differ)";
}

void expect_same(const std::vector<double>& got,
                 const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(same_bits(got[i], want[i])) << what << "[" << i << "]";
}

void expect_same(const Matrix& got, const Matrix& want,
                 const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  expect_same(got.data(), want.data(), what);
}

void expect_same(const PcaModel& got, const PcaModel& want) {
  expect_same(got.means, want.means, "means");
  expect_same(got.scales, want.scales, "scales");
  expect_same(got.eigenvalues, want.eigenvalues, "eigenvalues");
  expect_same(got.components, want.components, "components");
  EXPECT_EQ(got.retained, want.retained);
}

void expect_same(const PcrModel& got, const PcrModel& want) {
  expect_same(got.pca, want.pca);
  expect_same(got.score_coeffs, want.score_coeffs, "score_coeffs");
  EXPECT_TRUE(same_bits(got.intercept, want.intercept)) << "intercept";
  expect_same(got.raw_coefficients(), reference::raw_coefficients(want),
              "raw_coefficients");
}

/// How the columns of a synthetic window are generated.
struct Shape {
  std::size_t latents = 3;      ///< independent factors behind the columns
  bool constant_column = false;  ///< last column is a constant
  double constant_value = 0.25;  ///< its value, before any cap
  double cap = 0.0;              ///< > 0: clamp every value to this cap
};

/// One heartbeat-like row: columns mix `latents` factors plus a little
/// noise, with values in the 0.1–4 s range the controller sees.
std::vector<double> draw_row(sim::Rng& rng, std::size_t d, const Shape& s) {
  std::vector<double> f(s.latents);
  for (double& v : f) v = rng.uniform(0.1, 2.0);
  std::vector<double> row(d);
  for (std::size_t j = 0; j < d; ++j) {
    row[j] = f[j % s.latents] * (1.0 + 0.5 * static_cast<double>(j)) +
             rng.normal(0.0, 1e-3);
    if (row[j] < 0.0) row[j] = 0.0;
  }
  if (s.constant_column) row[d - 1] = s.constant_value;
  if (s.cap > 0.0)
    for (double& v : row) v = std::min(v, s.cap);
  return row;
}

TEST(PcrOracle, FitPcrMatchesReferenceBitForBit) {
  std::set<std::size_t> retained_seen;
  const std::vector<std::size_t> sizes = {2, 3, 24, 100, 511, 512, 700};
  const std::vector<double> explained = {0.5, 0.95, 0.999, 1.0};
  std::uint64_t seed = 1;
  for (std::size_t d = 1; d <= 5; ++d) {
    for (std::size_t latents = 1; latents <= 3; ++latents) {
      for (int variant = 0; variant < 4; ++variant) {
        Shape shape;
        shape.latents = latents;
        shape.constant_column = (variant == 1 || variant == 3) && d > 1;
        shape.constant_value = variant == 3 ? 5.0 : 0.25;
        shape.cap = variant >= 2 ? 1.2 : 0.0;
        for (std::size_t n : sizes) {
          sim::Rng rng(seed++);
          Matrix x(n, d);
          std::vector<double> y(n);
          for (std::size_t i = 0; i < n; ++i) {
            const auto row = draw_row(rng, d, shape);
            double t = 0.05;
            for (std::size_t j = 0; j < d; ++j) {
              x(i, j) = row[j];
              t += (0.3 + 0.2 * static_cast<double>(j)) * row[j];
            }
            y[i] = t + rng.normal(0.0, 0.01);
          }
          for (double me : explained) {
            SCOPED_TRACE("d=" + std::to_string(d) + " latents=" +
                         std::to_string(latents) + " variant=" +
                         std::to_string(variant) + " n=" + std::to_string(n) +
                         " min_explained=" + std::to_string(me));
            const PcaModel pca = fit_pca(x, me);
            const PcaModel pca_ref = reference::fit_pca(x, me);
            expect_same(pca, pca_ref);

            const PcrModel got = fit_pcr(x, y, me, 1e-8);
            const PcrModel want = reference::fit_pcr(x, y, me, 1e-8);
            expect_same(got, want);
            retained_seen.insert(got.pca.retained);
            for (std::size_t i = 0; i < std::min<std::size_t>(n, 8); ++i) {
              const auto xi = x.row_vector(i);
              EXPECT_TRUE(same_bits(got.predict(xi),
                                    reference::predict(want, xi)));
            }
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  for (std::size_t k = 1; k <= 3; ++k) EXPECT_TRUE(retained_seen.count(k)) << k;
}

/// One estimator configuration driven through the new and the reference
/// implementation side by side.
struct EstimatorCase {
  std::size_t refit_interval;
  Shape shape;
};

void drive(const EstimatorCase& c, std::uint64_t seed,
           std::set<std::size_t>& retained_seen) {
  using core::Features;
  constexpr double kL0 = 0.1;
  core::WeightEstimatorConfig cfg;
  cfg.refit_interval = c.refit_interval;
  cfg.feature_cap_s = c.shape.cap;
  core::WeightEstimator est(cfg, kL0, 0.01);
  reference::WeightEstimator ref(cfg, kL0, 0.01);
  // Observations are drawn without the cap so the estimators clamp them.
  Shape raw_shape = c.shape;
  raw_shape.cap = 0.0;

  sim::Rng rng(seed);
  const std::size_t total = cfg.max_samples + 3 * cfg.refit_interval + 40;
  for (std::size_t t = 0; t < total; ++t) {
    const auto row = draw_row(rng, core::kNumResources, raw_shape);
    const Features f{row[0], row[1], row[2]};
    const double y =
        kL0 + 0.6 * row[0] + 0.3 * row[1] + 0.1 * row[2] + rng.uniform(0, 0.02);
    est.observe(f, y);
    ref.observe(f, y);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " t=" + std::to_string(t));

    ASSERT_EQ(est.samples(), ref.samples());
    ASSERT_EQ(est.refits(), ref.refits());
    const auto w = est.weights();
    const auto w_ref = ref.weights();
    ASSERT_EQ(w.has_value(), w_ref.has_value());
    if (w.has_value()) {
      for (std::size_t i = 0; i < core::kNumResources; ++i)
        EXPECT_TRUE(same_bits((*w)[i], (*w_ref)[i])) << "weight " << i;
      retained_seen.insert(ref.model()->pca.retained);
    }
    const Features fixed{0.3, 0.8, 1.7};
    const Features saturated{5.0, 0.2, 0.4};
    for (const Features& probe : {f, fixed, saturated}) {
      EXPECT_TRUE(same_bits(est.predict_service_time(probe),
                            ref.predict_service_time(probe)));
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(est.samples(), 0u);
  EXPECT_EQ(est.samples(), cfg.max_samples);  // eviction was exercised
  // A read after every observe fits every refit point, once.
  EXPECT_EQ(est.fits(), est.refits());
}

TEST(PcrOracle, WeightEstimatorMatchesDequeReferenceAfterEveryObserve) {
  std::set<std::size_t> retained_seen;
  std::uint64_t seed = 100;
  for (std::size_t interval : {1u, 8u}) {
    for (std::size_t latents = 1; latents <= 3; ++latents) {
      // 0 plain, 1 constant column, 2 capped, 3 a constant column above the
      // cap, which the estimator clamps to a cap-valued constant.
      for (int variant = 0; variant < 4; ++variant) {
        EstimatorCase c{interval, Shape{}};
        c.shape.latents = latents;
        c.shape.constant_column = variant == 1 || variant == 3;
        c.shape.constant_value = variant == 3 ? 5.0 : 0.25;
        c.shape.cap = variant >= 2 ? 1.0 : 0.0;
        drive(c, seed++, retained_seen);
        if (HasFailure()) return;
      }
    }
  }
  for (std::size_t k = 1; k <= 3; ++k) EXPECT_TRUE(retained_seen.count(k)) << k;
}

/// Drives the lazy estimator and the eager reference with the same
/// observations, reading only at seeded sparse steps. Every read must see
/// the model the eager refit left at the latest refit point, bit for bit.
/// Returns the number of reads whose latest refit point predates a buffer
/// compaction that happened since, so the lazy window had to outlive it.
std::size_t drive_sparse(const core::WeightEstimatorConfig& cfg, Shape shape,
                         std::uint64_t seed) {
  using core::Features;
  constexpr double kL0 = 0.1;
  core::WeightEstimator est(cfg, kL0, 0.01);
  reference::WeightEstimator ref(cfg, kL0, 0.01);
  shape.cap = 0.0;  // the estimators clamp

  // The estimator compacts its buffers on the observe that finds them
  // holding 2 * max_samples rows: steps 2M, 3M, 4M, ...
  const std::size_t m = cfg.max_samples;
  auto compacts_at = [m](std::size_t t) { return t >= 2 * m && t % m == 0; };

  sim::Rng rng(seed);
  const std::size_t total = 4 * m + 40;
  std::size_t next_read = rng.uniform_index(41);
  std::size_t reads = 0, across_compaction = 0;
  std::size_t last_refit_t = 0, last_read_t = 0;
  bool compacted_since_refit = false;
  for (std::size_t t = 0; t < total; ++t) {
    const auto row = draw_row(rng, core::kNumResources, shape);
    const Features f{row[0], row[1], row[2]};
    const double y =
        kL0 + 0.6 * row[0] + 0.3 * row[1] + 0.1 * row[2] + rng.uniform(0, 0.02);
    if (compacts_at(t)) compacted_since_refit = true;
    const std::size_t refits_before = ref.refits();
    est.observe(f, y);
    ref.observe(f, y);
    if (ref.refits() != refits_before) {
      last_refit_t = t;
      compacted_since_refit = false;
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) + " t=" + std::to_string(t));
    // Counters and the window are not reads.
    EXPECT_EQ(est.samples(), ref.samples());
    EXPECT_EQ(est.refits(), ref.refits());
    EXPECT_EQ(est.calibrated(), ref.model().has_value());

    // Read right after each compaction; otherwise skip to the next seeded
    // read, sometimes further off than refit_interval.
    if (t != next_read && !compacts_at(t)) continue;
    if (ref.refits() > 0 && compacted_since_refit &&
        (reads == 0 || last_refit_t > last_read_t))
      ++across_compaction;
    ++reads;
    last_read_t = t;
    next_read = t + 1 + rng.uniform_index(3 * cfg.refit_interval + 21);

    const auto w = est.weights();
    const auto w_ref = ref.weights();
    EXPECT_EQ(w.has_value(), w_ref.has_value());
    if (w.has_value() && w_ref.has_value()) {
      for (std::size_t i = 0; i < core::kNumResources; ++i)
        EXPECT_TRUE(same_bits((*w)[i], (*w_ref)[i])) << "weight " << i;
    }
    const Features fixed{0.3, 0.8, 1.7};
    const Features saturated{5.0, 0.2, 0.4};
    for (const Features& probe : {f, fixed, saturated}) {
      const double want = ref.predict_service_time(probe);
      EXPECT_TRUE(same_bits(est.predict_service_time(probe), want));
      EXPECT_TRUE(same_bits(est.mu(probe), 1.0 / want));
    }
    EXPECT_LE(est.fits(), reads);
    if (::testing::Test::HasFailure()) return across_compaction;
  }
  EXPECT_LE(est.fits(), reads);
  EXPECT_LE(est.fits(), est.refits());
  if (!cfg.enable_pca) {
    EXPECT_EQ(est.fits(), 0u);
  }
  return across_compaction;
}

TEST(PcrOracle, LazyFitMatchesEagerReferenceAtSparseReads) {
  std::uint64_t seed = 500;
  for (bool pca : {true, false}) {
    for (std::size_t interval : {1u, 8u}) {
      std::size_t across_compaction = 0;
      for (int variant = 0; variant < 3; ++variant) {
        core::WeightEstimatorConfig cfg;
        cfg.enable_pca = pca;
        cfg.refit_interval = interval;
        cfg.max_samples = 64 + 32 * static_cast<std::size_t>(variant);
        cfg.feature_cap_s = variant == 2 ? 1.0 : 0.0;
        Shape shape;
        shape.latents = 1 + static_cast<std::size_t>(variant);
        shape.constant_column = variant == 1;
        SCOPED_TRACE("pca=" + std::to_string(pca) + " interval=" +
                     std::to_string(interval) + " variant=" +
                     std::to_string(variant));
        across_compaction += drive_sparse(cfg, shape, seed++);
        if (HasFailure()) return;
      }
      // With interval 8 a refit point usually falls a few steps before a
      // compaction, and the read right after it must use the old window.
      if (pca && interval == 8) {
        EXPECT_GT(across_compaction, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace amoeba::linalg
