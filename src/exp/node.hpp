// The shared node behind every run driver (paper §VII-A).
//
// The simulated cluster mirrors Table II: one 40-core / 25 GbE / NVMe node
// hosts the shared serverless platform, a second node hosts the IaaS VMs,
// and the load generator + controller + monitor run "off to the side"
// (they cost nothing in the simulation, matching the paper's third node).
//
// `Node` builds that setup once for run_managed, run_cluster and
// run_callgraph: profiler attach + harness scope, the event engine, the
// run rng, both platforms and the optional FaultInjector, plus the
// post-run roll-up. The co-tenant half (admit / start_tenant) is what
// run_cluster and run_callgraph share on top: the meter reserve, the
// just-enough asks and the split_container_budget grants, and one
// AmoebaRuntime per tenant with the co-tenant tuning.
//
// Fixed rules, shared by every co-tenant run:
//   * a tenant asks for one container per core of its just-enough VM, so it
//     may not consume more of the shared pool than it would rent on IaaS;
//   * co-tenant monitors probe at min(kMeterProbeQps, 4/N) per meter, so N
//     monitors' combined probing stays an N-independent ~4 QPS per meter;
//   * co-tenant switch margins are 0.50/0.70 (solo runs use 0.60/0.80);
//   * co-tenant runtimes sample no timelines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/amoeba.hpp"
#include "iaas/platform.hpp"
#include "obs/profiler.hpp"
#include "serverless/platform.hpp"
#include "stats/percentile.hpp"
#include "workload/function_profile.hpp"

namespace amoeba::exp {

/// Hardware/software configuration of the simulated cluster (Table II).
struct ClusterConfig {
  serverless::PlatformConfig serverless;
  iaas::IaasConfig iaas;
  std::uint64_t seed = 42;
};

/// Table II defaults: 40 cores, 32 GB container pool (256 MB containers →
/// n_max 128 node-wide), NVMe at 2 GB/s, 25 GbE, 1 s cold starts.
[[nodiscard]] ClusterConfig default_cluster();

/// "Just-enough" IaaS sizing (paper §II-B): the smallest VM (integer cores)
/// whose M/M/c model keeps the r-ile latency within the QoS target at the
/// service's peak load, with a small multiplicative headroom. Memory is a
/// 1 GB base plus one worker's footprint per core.
[[nodiscard]] iaas::VmSpec just_enough_vm(
    const workload::FunctionProfile& profile, const ClusterConfig& cluster,
    double r = 0.95, double headroom = 1.15);

/// A service's solo container ask (paper §IV-A's n_max): one container per
/// core of its just-enough VM. Keeps the discriminant honest about the
/// serverless peak capacity and bounds worst-case memory.
[[nodiscard]] int solo_container_ask(const iaas::VmSpec& vm);

/// Settings every run driver shares.
struct NodeRunOptions {
  double period_s = 1200.0;  ///< compressed "day"
  double duration_days = 1.0;
  double warmup_s = 60.0;
  std::uint64_t seed = 42;
  /// Observability sink attached to every managed runtime (non-owning;
  /// nullptr = disabled). Pure bookkeeping: the event trace is unchanged.
  obs::Observer* observer = nullptr;
  /// Self-profiler (non-owning; nullptr = disabled), attached to the calling
  /// thread and the engine for the run; wall time is attributed per
  /// obs::ProfDomain into sim-time buckets. The event trace is identical
  /// with or without it (Determinism.ProfilerDoesNotPerturb*).
  obs::Profiler* profiler = nullptr;
  /// Fault injection rates. All-zero (the default) runs fault-free and is
  /// byte-identical to a build without the subsystem; any nonzero rate
  /// attaches one FaultInjector (run rng fork 4) to the container pool, the
  /// VM fleet and every contention monitor.
  sim::FaultConfig faults;
};

/// Event-loop facts every run reports.
struct NodeRunStats {
  double duration_s = 0.0;
  /// Hash of the executed event trace (timestamp, event id) — identical
  /// across runs iff the simulation was deterministic (Engine::trace_hash).
  std::uint64_t trace_hash = 0;
  /// Engine events dispatched during the run (throughput denominators).
  std::uint64_t events_executed = 0;
  /// Injected-fault tallies (all zero when `faults` was all-zero).
  sim::FaultCounters fault_counters;
};

/// Node-wide totals of a co-tenant run (cluster tenants, call-graph stages).
struct NodeTotals : NodeRunStats {
  core::ServiceUsage tenants_usage;  ///< Σ per-tenant cross-platform usage
  /// The contention meters' own usage (probing is honest overhead).
  core::ServiceUsage meter_usage;
  /// Σ over every function on the node (tenants + meters) of the pool's
  /// container-memory reservation integral (MB·s). Conservation: can never
  /// exceed pool capacity × duration.
  double pool_memory_mb_seconds = 0.0;
  /// Pool-wide high-water marks and counters.
  int peak_pool_containers = 0;
  double peak_pool_memory_mb = 0.0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t prewarm_denied_total = 0;

  /// Total rented/consumed core-hours, meters included.
  [[nodiscard]] double total_core_hours() const {
    return (tenants_usage.cpu_core_seconds + meter_usage.cpu_core_seconds) /
           3600.0;
  }
  [[nodiscard]] double total_memory_gb_hours() const {
    return (tenants_usage.memory_mb_seconds +
            meter_usage.memory_mb_seconds) /
           (1024.0 * 3600.0);
  }
};

/// Per-tenant outcome fields shared by cluster services and graph stages.
struct TenantResult {
  std::string name;
  stats::SampleSet latencies;  ///< post-warmup queries
  core::ServiceUsage usage;    ///< rented IaaS + consumed serverless
  std::uint64_t switch_aborts = 0;
  std::uint64_t switch_retries = 0;
  /// Prewarm containers denied by the shared-pool arbitration.
  std::uint64_t prewarm_denied = 0;
  int n_max_asked = 0;    ///< solo ask (solo_container_ask)
  int n_max_granted = 0;  ///< after the budget split

  [[nodiscard]] double p95() const { return latencies.quantile(0.95); }
};

/// Lookup by tenant name (nullptr when absent).
template <class Tenant>
[[nodiscard]] const Tenant* find_tenant(const std::vector<Tenant>& tenants,
                                        const std::string& name) {
  for (const auto& t : tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

/// One simulated node for the length of one run. Declare it before
/// anything that holds a reference to its engine or platforms.
class Node {
 public:
  Node(const ClusterConfig& cluster, const NodeRunOptions& opt);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const sim::Rng& rng() const { return rng_; }
  [[nodiscard]] serverless::ServerlessPlatform& serverless_platform() {
    return sp_;
  }
  [[nodiscard]] iaas::IaasPlatform& iaas_platform() { return ip_; }
  [[nodiscard]] sim::FaultInjector* faults() const { return faults_.get(); }
  [[nodiscard]] double duration_s() const { return duration_s_; }
  /// When tenant load starts: after the IaaS VMs could have booted, inside
  /// warmup, so no query arrives before its platform exists.
  [[nodiscard]] double load_start_s() const { return load_start_s_; }

  /// Co-tenant admission: registers the three meters first, each capped at
  /// its share of `meter_reserve_containers` (so tenant prewarms can never
  /// starve probing), sizes each tenant's just-enough VM and splits the
  /// rest of `node_container_budget` with core::split_container_budget.
  void admit(std::vector<workload::FunctionProfile> profiles,
             int node_container_budget, int meter_reserve_containers);
  /// The tuning every co-tenant runtime starts from (see the file comment).
  [[nodiscard]] core::AmoebaConfig co_tenant_config() const;
  /// Creates and starts the runtime of the next admitted tenant i, in
  /// admission order (run rng fork 1000 + i).
  core::AmoebaRuntime& start_tenant(const core::ServiceArtifacts& artifacts,
                                    const core::MeterCalibration& calibration,
                                    const core::AmoebaConfig& cfg);
  [[nodiscard]] core::AmoebaRuntime& tenant(std::size_t i) {
    return *tenants_.at(i);
  }

  /// Runs the event loop to the end of the day.
  void run() { engine_.run_until(duration_s_); }
  void stop_tenants();

  /// Post-run roll-up.
  void roll_up(NodeRunStats& out) const;
  void roll_up(NodeTotals& out);
  /// Fills tenant `i`'s shared fields (except latencies) and adds its usage
  /// and denied prewarms into `totals`.
  void roll_up_tenant(std::size_t i, TenantResult& out, NodeTotals& totals);

 private:
  obs::ProfilerAttach prof_attach_;  // first in, last out
  obs::ProfScope harness_scope_;
  ClusterConfig cluster_;
  obs::Observer* observer_;
  double duration_s_;
  double load_start_s_;
  sim::Engine engine_;
  sim::Rng rng_;
  serverless::ServerlessPlatform sp_;
  iaas::IaasPlatform ip_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::vector<workload::FunctionProfile> profiles_;
  std::vector<iaas::VmSpec> vm_specs_;
  std::vector<int> asks_;
  std::vector<int> grants_;
  std::vector<std::unique_ptr<core::AmoebaRuntime>> tenants_;
};

}  // namespace amoeba::exp
