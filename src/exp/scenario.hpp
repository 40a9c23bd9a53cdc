// Experiment scenario builders — encodes the paper's §VII-A setup on the
// shared node of exp/node.hpp: one foreground service under a chosen
// deployment system, with scripted background tenants on the serverless
// platform. It keeps its own body, not exp::run_node's: its baselines have
// no control loop and its background tenants no runtime (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/amoeba.hpp"
#include "core/profile_data.hpp"
#include "exp/node.hpp"
#include "workload/functionbench.hpp"

namespace amoeba::exp {

/// The diurnal trace used to drive a service: peak at its provisioned
/// peak_load_qps, trough at 25% (paper §I: low load < 30% of peak).
[[nodiscard]] workload::DiurnalTraceConfig diurnal_for(
    const workload::FunctionProfile& profile, double period_s,
    double phase = 0.0);

/// Collects one service's post-warmup user-query latencies, and its full
/// QueryRecords only when `keep_records` is set.
struct RunRecorder {
  double warmup_s = 0.0;
  bool keep_records = false;
  stats::SampleSet latencies = {};
  std::vector<workload::QueryRecord> records = {};

  [[nodiscard]] workload::QueryCompletionFn observer();
};

/// Which deployment system manages the foreground benchmark.
enum class DeploySystem {
  kAmoeba,      ///< full system
  kAmoebaNoM,   ///< PCA calibration disabled (§VII-C)
  kAmoebaNoP,   ///< container prewarm disabled (§VII-D)
  kNameko,      ///< pure IaaS baseline
  kOpenWhisk,   ///< pure serverless baseline
};

[[nodiscard]] const char* to_string(DeploySystem s) noexcept;

/// The AmoebaConfig run_managed uses for the managed systems (margins,
/// hysteresis, prewarm headroom, anticipation window). Exposed so cluster
/// runs and ablations start from the same tuning as the single-service
/// experiments.
[[nodiscard]] core::AmoebaConfig default_amoeba_config(
    DeploySystem system, double timeline_period_s);

/// The observer, when set, is ignored by the pure baselines (no control
/// loop to observe) and takes precedence over `amoeba->observer`.
struct ManagedRunOptions : NodeRunOptions {
  bool with_background = true;   ///< float/dd/cloud_stor at low peak (§VII-A)
  double background_peak_fraction = 0.30;
  /// Forwarded to AmoebaConfig::timeline_period_s: 0 follows the monitor
  /// sample period, negative disables timelines, positive as given.
  double timeline_period_s = 0.0;
  /// Keep every foreground QueryRecord in the result (windowed analyses).
  bool keep_records = false;
  /// Overrides for ablation studies; defaults follow AmoebaConfig.
  std::optional<core::AmoebaConfig> amoeba;
};

struct ManagedRunResult : NodeRunStats {
  stats::SampleSet latencies;              ///< foreground user queries
  std::vector<workload::QueryRecord> records;  ///< if keep_records
  std::uint64_t queries = 0;
  core::ServiceUsage usage;                ///< foreground, across platforms
  std::vector<core::SwitchEvent> switches; ///< empty for pure baselines
  core::ServiceTimeline timeline;          ///< populated if sampling enabled
  double qos_target_s = 0.0;
  /// Switch-protocol resilience counters (managed systems only).
  std::uint64_t switch_aborts = 0;
  std::uint64_t switch_retries = 0;

  [[nodiscard]] double p95() const { return latencies.quantile(0.95); }
  [[nodiscard]] double violation_fraction() const {
    return latencies.fraction_above(qos_target_s);
  }
};

/// Run one foreground benchmark under the given system, with the paper's
/// background tenants on the shared serverless platform. This is the
/// workhorse behind Figs. 10–14 and 16.
[[nodiscard]] ManagedRunResult run_managed(
    const workload::FunctionProfile& foreground, DeploySystem system,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const core::ServiceArtifacts& artifacts, const ManagedRunOptions& opt);

/// Background tenants of §VII-A: float, dd and cloud_stor scaled to a low
/// peak, offset in phase so their rushes don't align.
[[nodiscard]] std::vector<workload::FunctionProfile> background_suite(
    double peak_fraction);

}  // namespace amoeba::exp
