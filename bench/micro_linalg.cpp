// Microbenchmarks of the monitor's PCA/PCR path (runs on every fit) and of
// the weight estimator that decides when to fit.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/weight_estimator.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/pca.hpp"
#include "sim/random.hpp"

namespace {

using namespace amoeba;

linalg::Matrix random_samples(std::size_t n, std::size_t d,
                              std::uint64_t seed) {
  sim::Rng rng(seed);
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double latent = rng.normal(0.0, 1.0);
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = latent * (1.0 + 0.2 * static_cast<double>(j)) +
                rng.normal(0.0, 0.1);
    }
  }
  return x;
}

void BM_FitPca(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_samples(n, 3, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::fit_pca(x, 0.95));
  }
}
BENCHMARK(BM_FitPca)->Arg(64)->Arg(256)->Arg(512);

void BM_FitPcr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_samples(n, 3, 43);
  std::vector<double> y(n);
  sim::Rng rng(44);
  for (std::size_t i = 0; i < n; ++i) y[i] = x(i, 0) + rng.normal(0.0, 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::fit_pcr(x, y, 0.95, 1e-8));
  }
}
BENCHMARK(BM_FitPcr)->Arg(64)->Arg(256)->Arg(512);

void BM_JacobiEigen(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(45);
  linalg::Matrix a(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eigen(a));
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(3)->Arg(8)->Arg(16);

// One controller sample period for one service: `k` heartbeats reach the
// estimator, then the tick reads μ once. The estimator fits only on that
// read, so the cost per heartbeat falls as k grows past refit_interval.
void BM_HeartbeatsPerTick(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::WeightEstimatorConfig cfg;
  cfg.feature_cap_s = 2.0;
  core::WeightEstimator est(cfg, 0.1, 0.01);
  // A fixed ring of heartbeats, so the loop times the estimator alone.
  sim::Rng rng(46);
  std::vector<core::Features> xs(1024);
  std::vector<double> ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double load = rng.uniform(0.1, 1.0);
    xs[i] = {0.1 + load * rng.uniform(0.5, 1.5), 0.1 + 0.2 * load,
             0.1 + 0.05 * rng.uniform()};
    ys[i] = 0.1 + 0.6 * (xs[i][0] - 0.1) + rng.uniform(0.0, 0.01);
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < cfg.max_samples; ++i) {
    est.observe(xs[next], ys[next]);
    next = (next + 1) % xs.size();
  }
  const core::Features probe = {0.4, 0.2, 0.11};
  for (auto _ : state) {
    for (std::size_t i = 0; i < k; ++i) {
      est.observe(xs[next], ys[next]);
      next = (next + 1) % xs.size();
    }
    benchmark::DoNotOptimize(est.mu(probe));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(k) * state.iterations());
}
BENCHMARK(BM_HeartbeatsPerTick)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
