// Share-nothing parallel sweep runner.
//
// Profiling and the figure benches run many independent single-threaded
// simulations (grid cells, load sweeps, seeds). `SweepExecutor` fans them
// out over a persistent common::ThreadPool; each item gets its own
// simulation engine and RNG stream, and results are always collected in
// configuration order, no matter which worker finishes first, so a table
// built from them is identical at --jobs 1 and --jobs 8 and to a serial
// run.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"

namespace amoeba::exp {

/// Parse and consume a `--jobs N` / `--jobs=N` flag from argv (the shared
/// worker-count flag of the fig/abl bench binaries). Returns 1 when absent
/// — sweeps are serial unless asked otherwise. The flag and its value are
/// removed from argv so later flag parsers never see them. A value that is
/// not an integer in [1, 1024], or a `--jobs` with no value after it, is a
/// ContractError.
[[nodiscard]] unsigned parse_jobs_flag(int& argc, char** argv);

/// Persistent worker pool running independent scenario configurations
/// concurrently. Each configuration must be share-nothing (own Engine, own
/// seeded RNG — which `run_managed` and friends construct internally), so
/// the result table is a pure function of the configuration list:
/// `map` returns results in configuration order regardless of jobs count
/// or completion order.
///
/// Concurrency surface: the only cross-thread state is the annotated
/// common::ThreadPool (Clang thread-safety checked) and the result
/// vector, which workers write at disjoint indices i — the pool's
/// wait_idle() join orders those writes before the caller reads them.
/// SweepExecutor itself is confined to the submitting thread: `map` /
/// `map_indexed` must not be called concurrently on one executor.
class SweepExecutor {
 public:
  /// `jobs` worker threads (0 = hardware concurrency); 1 (also the
  /// parse_jobs_flag default) runs everything on the calling thread with no
  /// pool at all.
  explicit SweepExecutor(unsigned jobs)
      : jobs_(common::effective_threads(jobs)) {
    if (jobs_ > 1) pool_ = std::make_unique<common::ThreadPool>(jobs_);
  }

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Run `fn(config)` for every configuration, collecting results in
  /// configuration order. `fn` must be safe to call concurrently on
  /// distinct configurations. The first exception thrown (if any) is
  /// rethrown after in-flight work drains.
  template <typename Result, typename Config, typename Fn>
  [[nodiscard]] std::vector<Result> map(const std::vector<Config>& configs,
                                        Fn&& fn) {
    std::vector<Result> out(configs.size());
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        out[i] = fn(configs[i]);
      }
      return out;
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
      pool_->submit(
          [&out, &configs, &fn, i] { out[i] = fn(configs[i]); });
    }
    pool_->wait_idle();
    return out;
  }

  /// Index-based variant: `fn(i)` over [0, n), results in index order.
  template <typename Result, typename Fn>
  [[nodiscard]] std::vector<Result> map_indexed(std::size_t n, Fn&& fn) {
    std::vector<Result> out(n);
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
      return out;
    }
    for (std::size_t i = 0; i < n; ++i) {
      pool_->submit([&out, &fn, i] { out[i] = fn(i); });
    }
    pool_->wait_idle();
    return out;
  }

 private:
  unsigned jobs_;
  std::unique_ptr<common::ThreadPool> pool_;  // null when jobs_ == 1
};

}  // namespace amoeba::exp
