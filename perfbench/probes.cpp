#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "core/queueing.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pca.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 7;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps a computed value alive so the timed calls are not elided.
void keep(const double& v) { asm volatile("" : : "g"(&v) : "memory"); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One heartbeat as the controller sees it: three surface predictions
/// around L0 and an observed latency that is a noisy linear mix of them.
struct Heartbeat {
  amoeba::core::Features x;
  double y;
};

Heartbeat heartbeat(amoeba::sim::Rng& rng, double l0) {
  Heartbeat h{};
  for (auto& xi : h.x) xi = l0 * rng.uniform(1.0, 3.0);
  h.y = 0.5 * h.x[0] + 0.3 * h.x[1] + 0.2 * h.x[2] +
        rng.normal(0.0, 0.02 * l0);
  return h;
}

}  // namespace

ProbeResults run_probes(const ProbeSizes& sizes, std::uint64_t seed) {
  namespace core = amoeba::core;
  namespace linalg = amoeba::linalg;
  namespace sim = amoeba::sim;
  ProbeResults out;
  sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  // WeightEstimator::observe on a full window: the per-heartbeat cost the
  // controller pays, amortized over the refits it triggers.
  {
    core::WeightEstimator est(sizes.estimator, sizes.solo_latency_s, 0.0);
    for (std::size_t i = 0; i < sizes.estimator.max_samples; ++i) {
      const auto h = heartbeat(rng, sizes.solo_latency_s);
      est.observe(h.x, h.y);
    }
    const std::size_t per_batch = 32 * sizes.estimator.refit_interval;
    std::vector<double> us;
    const std::size_t refits0 = est.refits();
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Heartbeat> beats;
      beats.reserve(per_batch);
      for (std::size_t i = 0; i < per_batch; ++i) {
        beats.push_back(heartbeat(rng, sizes.solo_latency_s));
      }
      const std::size_t before = est.refits();
      const auto t0 = Clock::now();
      for (const auto& h : beats) est.observe(h.x, h.y);
      const double s = seconds_since(t0);
      const std::size_t refits = est.refits() - before;
      us.push_back(1e6 * s / static_cast<double>(std::max<std::size_t>(refits, 1)));
    }
    out.pcr_refit_us = median(us);
    out.pcr_refits = est.refits() - refits0;
  }

  // linalg::fit_pcr on the same window shape (max_samples × 3).
  {
    const std::size_t rows = sizes.estimator.max_samples;
    linalg::Matrix x(rows, core::kNumResources);
    std::vector<double> y(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto h = heartbeat(rng, sizes.solo_latency_s);
      for (std::size_t c = 0; c < core::kNumResources; ++c) x(r, c) = h.x[c];
      y[r] = h.y;
    }
    constexpr int kCalls = 40;
    std::vector<double> us;
    double sink = 0.0;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kCalls; ++i) {
        const auto model = linalg::fit_pcr(x, y, sizes.estimator.min_explained,
                                           sizes.estimator.ridge);
        sink += model.intercept;
      }
      us.push_back(1e6 * seconds_since(t0) / kCalls);
    }
    keep(sink);
    out.fit_pcr_us = median(us);
  }

  // queueing::max_arrival_rate at the largest grant of the run.
  {
    const double mu = 1.0 / sizes.solo_latency_s;
    constexpr int kCalls = 50;
    std::vector<double> us;
    double sink = 0.0;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Vary the target slightly so no call can be hoisted.
        const double t_d = sizes.qos_target_s * (1.0 + 1e-3 * i);
        sink += core::queueing::max_arrival_rate(sizes.n_max, mu, t_d, 0.95)
                    .value_or(0.0);
      }
      us.push_back(1e6 * seconds_since(t0) / kCalls);
    }
    keep(sink);
    out.max_arrival_rate_us = median(us);
  }

  // FairShareResource::open/close with the run's peak stream count active.
  {
    sim::Engine engine;
    sim::FairShareResource cpu(engine, "cpu", sizes.cores,
                               sizes.cpu_interference);
    for (int i = 0; i < sizes.streams; ++i) {
      (void)cpu.open(1e9, 1.0, [] {}, "resident");
    }
    constexpr int kPairs = 4000;
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kPairs; ++i) {
        const auto id = cpu.open(1e9, 1.0, [] {}, "probe");
        (void)cpu.close(id);
      }
      ns.push_back(1e9 * seconds_since(t0) / kPairs);
    }
    out.fair_share_open_close_ns = median(ns);
  }

  // Engine schedule + dispatch with the run's peak pending-event count.
  {
    sim::Engine engine;
    for (int i = 0; i < sizes.streams; ++i) {
      (void)engine.schedule(1e12 + i, [] {});
    }
    struct Chain {
      sim::Engine* engine;
      std::uint64_t* left;
      void operator()() const {
        if (--*left > 0) (void)engine->schedule_in(1e-3, *this);
      }
    };
    constexpr std::uint64_t kEvents = 100000;
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
      std::uint64_t left = kEvents;
      (void)engine.schedule_in(1e-3, Chain{&engine, &left});
      const auto t0 = Clock::now();
      engine.run_until(engine.now() + 1e-3 * (kEvents + 1));
      ns.push_back(1e9 * seconds_since(t0) / static_cast<double>(kEvents));
    }
    out.schedule_fire_ns = median(ns);
  }
  return out;
}

}  // namespace perfbench
