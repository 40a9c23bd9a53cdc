// The shared node and the one co-tenant run driver (paper §VII-A).
//
// The simulated cluster mirrors Table II: one 40-core / 25 GbE / NVMe node
// hosts the shared serverless platform, a second node hosts the IaaS VMs,
// and the load generator + controller + monitor run "off to the side"
// (they cost nothing in the simulation, matching the paper's third node).
//
// `Node` builds that setup once for run_managed and run_node: profiler
// attach + harness scope, the event engine, the run rng, both platforms,
// the optional FaultInjector, the load streams (diurnal trace + Poisson
// generator) and the post-run roll-up.
//
// `run_node` is the one co-tenant driver. Its spec is an ordered list of
// components, each a DAG of managed stages behind one diurnal stream: a
// cluster is N one-stage components, a call graph is one component. It
// adds the meter reserve, the just-enough asks, the split_container_budget
// grants, one AmoebaRuntime per stage and one AND-join query router.
//
// Fixed rules, shared by every co-tenant run:
//   * a tenant asks for one container per core of its just-enough VM, so it
//     may not consume more of the shared pool than it would rent on IaaS;
//   * co-tenant monitors probe at min(kMeterProbeQps, 4/N) per meter, so N
//     monitors' combined probing stays an N-independent ~4 QPS per meter;
//   * co-tenant switch margins are 0.50/0.70 (solo runs use 0.60/0.80);
//   * co-tenant runtimes sample no timelines;
//   * a stage sample counts post-warmup iff its query's root injection
//     time is >= warmup_s;
//   * tenants are numbered in component order (run rng fork 1000 + i);
//     component c's stream uses trace seed seed ^ (0x51 + c) and rng fork
//     2000 + c; every tenant starts before any renorm tick or load start
//     is scheduled.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/amoeba.hpp"
#include "iaas/platform.hpp"
#include "obs/profiler.hpp"
#include "serverless/platform.hpp"
#include "stats/percentile.hpp"
#include "workload/call_graph.hpp"
#include "workload/diurnal_trace.hpp"
#include "workload/function_profile.hpp"
#include "workload/load_generator.hpp"

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

/// Settings of every co-tenant run (cluster tenants, call-graph stages).
struct CoTenantRunOptions : NodeRunOptions {
  /// Node-wide container budget (Table II: 32 GB pool / 256 MB = 128).
  int node_container_budget = 128;
  /// Containers withheld from the tenant split for the three contention
  /// meters (divided equally; at least 1 per meter). Meters are registered
  /// with this as their per-function n_max before any runtime starts.
  int meter_reserve_containers = 15;
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

  /// Adds a load stream: a diurnal trace (noise seed `trace_seed`) driving
  /// a Poisson generator on run rng fork `rng_fork`. Returns its index.
  std::size_t add_load(const workload::DiurnalTraceConfig& cfg,
                       std::uint64_t trace_seed, std::uint64_t rng_fork,
                       workload::ArrivalFn on_arrival);
  /// Starts load `i` now.
  void start_load(std::size_t i);
  /// Schedules load `i` to start after the IaaS VMs could have booted,
  /// inside warmup, so no query arrives before its platform exists.
  void schedule_load_start(std::size_t i);

  /// Runs the event loop to the end of the day, then stops every load.
  void run();

  /// Post-run roll-up.
  void roll_up(NodeRunStats& out) const;

 private:
  obs::ProfilerAttach prof_attach_;  // first in, last out
  obs::ProfScope harness_scope_;
  double duration_s_;
  double load_start_s_;
  sim::Engine engine_;
  sim::Rng rng_;
  serverless::ServerlessPlatform sp_;
  iaas::IaasPlatform ip_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::vector<std::unique_ptr<workload::DiurnalTrace>> traces_;
  std::vector<std::unique_ptr<workload::PoissonLoadGenerator>> generators_;
};

/// How a component's end-to-end QoS target decomposes into stage budgets.
enum class BudgetMode : std::uint8_t {
  kNaiveEqual,     ///< fixed T / max_path_stages per stage
  kEndToEndAware,  ///< critical-path-weighted, renormalized from p95s
};

[[nodiscard]] const char* to_string(BudgetMode m) noexcept;

/// One component of a node run: a DAG of managed stages behind one
/// diurnal stream and one end-to-end QoS target.
struct NodeComponent {
  workload::CallGraph graph;
  /// Profiled artifacts of each stage in canonical order (non-owning).
  std::span<const core::ServiceArtifacts> artifacts;
  double e2e_qos_target_s = 0.0;  ///< required, > 0
  BudgetMode budget_mode = BudgetMode::kNaiveEqual;
  /// Peak arrival rate at the roots; 0 = the first root stage's profile
  /// peak. Every stage sees this traffic, so it is provisioned for it.
  double root_peak_qps = 0.0;
  double phase = 0.0;  ///< diurnal phase offset of the stream, in [0, 1)
  /// A call graph names stage k "<base>@s<k>", audits it as stage k and
  /// keeps the end-to-end ledger (in-flight queries, e2e latencies and
  /// the "callgraph/e2e" spans). A plain tenant has one stage, keeps its
  /// profile name (names order the container pool's maps), audits stage
  /// -1 and records only its stage latencies.
  bool call_graph = true;
};

/// Per-stage outcome of a node run.
struct StageResult : TenantResult {
  double initial_budget_s = 0.0;  ///< applied at setup (after clamping)
  double final_budget_s = 0.0;    ///< applied after the last renorm tick
  std::uint64_t submitted = 0;    ///< queries entering the stage (all)
  std::uint64_t finished = 0;     ///< stage completions (all)
  std::vector<core::SwitchEvent> switches;
};

/// Per-component outcome of a node run. Query conservation holds exactly:
/// root_injected == queries_completed + queries_unfinished.
struct ComponentResult {
  std::vector<StageResult> stages;  ///< canonical stage order
  stats::SampleSet e2e_latencies;   ///< call graphs only, post-warmup
  std::uint64_t root_injected = 0;
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_unfinished = 0;
};

struct NodeRunResult : NodeTotals {
  std::vector<ComponentResult> components;
};

/// Run every component on one shared node. Fixed budget rules: a stage's
/// applied budget is clamped to [1.25 x its ideal solo IaaS latency, T];
/// that floor must lie below T, so a one-stage naive component gets
/// exactly its profile's qos_target_s. In kEndToEndAware mode a
/// core::BudgetDecomposer renormalizes the budgets every 5 s (the monitor
/// sample period) from each stage's p95 over the completions since the
/// last tick, once that window holds 12 of them.
[[nodiscard]] NodeRunResult run_node(
    const std::vector<NodeComponent>& components,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const CoTenantRunOptions& opt);

/// Writer of the fig17/fig18 summary-JSON objects: `{"key": value, ...}`
/// in call order, numbers via obs::json_number.
class SummaryJson {
 public:
  /// `json` is inserted verbatim (a number, a quoted string, an array).
  SummaryJson& raw(std::string_view key, std::string_view json);
  SummaryJson& num(std::string_view key, double v);
  SummaryJson& str(std::string_view key, std::string_view v);
  /// The co-tenant node totals: total_core_hours, total_memory_gb_hours,
  /// peak_pool_containers.
  SummaryJson& totals(const NodeTotals& r);
  /// The per-tenant tail: switches, switch_aborts, switch_retries,
  /// prewarm_denied, n_max_asked, n_max_granted, core_seconds,
  /// memory_mb_seconds.
  SummaryJson& tenant(const TenantResult& t, std::size_t switches);
  [[nodiscard]] std::string close() { return out_ + "}"; }

  /// `"key": [a, b, ...]` of `object_of(item)` over `items`.
  template <class Range, class Fn>
  SummaryJson& array(std::string_view key, const Range& items, Fn object_of) {
    std::string json = "[";
    for (const auto& item : items) {
      if (json.size() > 1) json += ", ";
      json += object_of(item);
    }
    return raw(key, json + "]");
  }

 private:
  std::string out_ = "{";
};

}  // namespace amoeba::exp
