// Amoeba runtime — the top-level system of paper Fig. 6.
//
// Wires together the contention-aware deployment controller (§IV), the
// hybrid execution engine (§V) and the multi-resource contention monitor
// (§VI) over one serverless platform and one IaaS platform. Per monitor
// sample period it measures each service's load, asks the controller for a
// decision, and drives the engine's switch protocol.
//
// Ablations from the paper's evaluation are configuration, not forks:
//   Amoeba-NoM: estimator.enable_pca = false   (§VII-C)
//   Amoeba-NoP: engine.enable_prewarm = false  (§VII-D)
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/contention_monitor.hpp"
#include "core/deployment_controller.hpp"
#include "core/hybrid_engine.hpp"
#include "core/resource_accounting.hpp"
#include "obs/observer.hpp"
#include "stats/percentile.hpp"
#include "stats/rate_estimator.hpp"
#include "stats/timeseries.hpp"

namespace amoeba::core {

struct AmoebaConfig {
  ControllerConfig controller;
  HybridEngineConfig engine;
  ContentionMonitorConfig monitor;
  WeightEstimatorConfig estimator;
  /// Load-measurement window for V_u (seconds).
  double load_window_s = 30.0;
  /// Horizon (seconds) over which rising load is extrapolated for the
  /// switch-back decision; should cover hysteresis + VM boot. 0 disables.
  double load_anticipation_s = 0.0;
  /// Period of the per-service timeline sampler (load, mode, usage — the
  /// Fig. 12/13 data). 0 (the default) follows the monitor sample period;
  /// negative disables timelines; positive is used as given.
  double timeline_period_s = 0.0;
  /// Observability sink (non-owning; nullptr = disabled, zero cost). When
  /// set, every monitor tick appends a DecisionRecord, switch-protocol
  /// phases and query lifecycles become spans, and labeled metrics update.
  /// Recording is pure bookkeeping: it never schedules simulation events or
  /// draws randomness, so enabling it does not change the event-trace hash.
  obs::Observer* observer = nullptr;
  /// Fault injector (non-owning; nullptr = fault-free). The runtime attaches
  /// it to the contention monitor; callers attach it to the platforms
  /// themselves (the scenario layer does all of this from one config).
  sim::FaultInjector* fault_injector = nullptr;
  /// Call-graph stage index when this runtime manages one stage of a DAG
  /// (exp::run_callgraph); -1 for standalone services. Carried into every
  /// DecisionRecord so one audit log disentangles N per-stage control loops.
  int stage_id = -1;
};

/// Per-service timelines for the paper's Fig. 12/13.
struct ServiceTimeline {
  stats::TimeSeries load_qps;
  stats::TimeSeries mode;  ///< 0 = IaaS, 1 = serverless
  stats::TimeSeries cpu_core_seconds;   ///< cumulative
  stats::TimeSeries memory_mb_seconds;  ///< cumulative
};

class AmoebaRuntime {
 public:
  AmoebaRuntime(sim::Engine& engine,
                serverless::ServerlessPlatform& serverless,
                iaas::IaasPlatform& iaas, MeterCalibration calibration,
                AmoebaConfig cfg, sim::Rng rng);

  /// Register a managed service: profile + just-enough VM spec + profiled
  /// artifacts. Must be called before start().
  void add_service(const workload::FunctionProfile& profile,
                   iaas::VmSpec vm_spec, ServiceArtifacts artifacts,
                   int serverless_max_containers = 0);

  /// Boot the monitor and begin control ticks.
  void start();
  void stop();

  /// User query entry point.
  void submit(const std::string& service, workload::QueryCompletionFn on_done);

  [[nodiscard]] DeploymentController& controller() noexcept {
    return controller_;
  }
  [[nodiscard]] ContentionMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] HybridExecutionEngine& execution_engine() noexcept {
    return exec_engine_;
  }
  [[nodiscard]] ResourceAccountant& accountant() noexcept {
    return accountant_;
  }

  [[nodiscard]] const std::vector<SwitchEvent>& switch_events() const {
    return exec_engine_.switch_events();
  }
  [[nodiscard]] const ServiceTimeline& timeline(
      const std::string& service) const;

  /// Current measured load of a service (V_u).
  [[nodiscard]] double measured_load(const std::string& service) const;

  /// Retarget the service's QoS budget everywhere it is consumed: the
  /// controller's discriminant, the execution engine's warm-set sizing and
  /// the runtime's own prewarm-target audit field. Driven by the
  /// end-to-end budget decomposer between monitor ticks.
  void set_qos_target(const std::string& service, double qos_target_s);

  /// Effective timeline sampling period: the configured value, or the
  /// monitor sample period when the config left it at 0. <= 0 = disabled.
  [[nodiscard]] double timeline_period() const;

  /// The attached observability sink (nullptr when disabled).
  [[nodiscard]] obs::Observer* observer() const noexcept { return obs_; }

 private:
  struct ServiceRt {
    workload::FunctionProfile profile;
    stats::RateEstimator load;
    /// User latencies since the last tick; the tick selects their p95 in
    /// place and clears them.
    std::vector<double> period_latencies;
    ServiceTimeline timeline;
    double prev_tick_load = 0.0;  ///< for the load-trend forecast
    bool has_prev_load = false;
  };

  void on_sample();
  void sample_timelines();
  ServiceRt& rt_of(const std::string& service);
  const ServiceRt& rt_of(const std::string& service) const;

  /// Append the tick's DecisionRecord + metrics + trace instants for one
  /// service (observer must be attached).
  void record_decision(const std::string& name, const ServiceTickInput& input,
                       SwitchDecision decision);
  /// Record one completed user query (lifecycle span + latency metrics).
  void record_query(const std::string& service,
                    const workload::QueryRecord& rec, DeployMode platform);

  sim::Engine& engine_;
  serverless::ServerlessPlatform& serverless_;
  AmoebaConfig cfg_;
  DeploymentController controller_;
  HybridExecutionEngine exec_engine_;
  ContentionMonitor monitor_;
  ResourceAccountant accountant_;
  std::map<std::string, ServiceRt> services_;
  obs::Observer* obs_ = nullptr;
  std::uint64_t next_query_span_id_ = 1;
  bool started_ = false;
  sim::EventId timeline_event_ = sim::kNoEvent;
};

}  // namespace amoeba::core
