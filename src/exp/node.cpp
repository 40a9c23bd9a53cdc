#include "exp/node.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/queueing.hpp"
#include "exp/scenario.hpp"
#include "workload/meters.hpp"

namespace amoeba::exp {

namespace {

/// Combined probe rate per meter across all co-tenant monitors (QPS).
constexpr double kNodeProbeQpsPerMeter = 4.0;
/// Co-tenant switch margins: tighter than a solo service's 0.60/0.80. The
/// discriminant's pressure inputs are caused by live co-tenants whose own
/// controllers react in the same tick, so predictions carry more error
/// than against scripted noise — leave earlier, return later.
constexpr double kCoTenantToServerlessMargin = 0.50;
constexpr double kCoTenantToIaasMargin = 0.70;
/// Co-tenant runtimes sample no timelines: N timelines of samples are
/// rarely worth their memory (negative disables, see AmoebaConfig).
constexpr double kCoTenantTimelinePeriodS = -1.0;

}  // namespace

ClusterConfig default_cluster() {
  ClusterConfig c;
  c.serverless.cores = 40.0;
  c.serverless.pool_memory_mb = 32768.0;  // 128 containers at 256 MB
  c.serverless.disk_bps = 2.0e9;
  c.serverless.net_bps = 3.125e9;
  c.serverless.container_core_cap = 1.0;
  c.serverless.cpu_interference = 0.35;  // shared-LLC/membw degradation
  c.serverless.io_efficiency = 0.85;     // overlay-fs / container IO tax
  c.serverless.cold_start_mean_s = 1.0;
  c.serverless.cold_start_cv = 0.25;
  // The experiment day is compressed (600 s ≈ 24 h), so the keep-alive is
  // compressed with it: 10 s here ≈ a 24-minute OpenWhisk-style TTL. Cold
  // starts deliberately stay at real-world magnitude (1 s) — they are the
  // adversary Eq. 7/8 defend against.
  c.serverless.keep_alive_s = 10.0;
  c.iaas.disk_bps = 2.0e9;
  c.iaas.net_bps = 3.125e9;
  c.iaas.vm_boot_s = 30.0;
  c.seed = 42;
  return c;
}

iaas::VmSpec just_enough_vm(const workload::FunctionProfile& profile,
                            const ClusterConfig& cluster, double r,
                            double headroom) {
  AMOEBA_EXPECTS(headroom >= 1.0);
  const double service_s =
      profile.ideal_iaas_latency(cluster.iaas.disk_bps, cluster.iaas.net_bps);
  const double mu = 1.0 / service_s;
  const auto servers = core::queueing::min_servers(
      profile.peak_load_qps, mu, profile.qos_target_s, r);
  AMOEBA_EXPECTS_MSG(servers.has_value(),
                     "no VM size can meet the QoS target: " + profile.name);
  const int cores =
      static_cast<int>(std::ceil(*servers * headroom));
  iaas::VmSpec spec;
  spec.cores = cores;
  spec.memory_mb = 1024.0 + profile.memory_mb * cores;
  spec.boot_s = cluster.iaas.vm_boot_s;
  return spec;
}

int solo_container_ask(const iaas::VmSpec& vm) {
  return std::max(1, static_cast<int>(std::ceil(vm.cores)));
}

Node::Node(const ClusterConfig& cluster, const NodeRunOptions& opt)
    : prof_attach_(opt.profiler),
      harness_scope_(obs::ProfDomain::kHarness),
      cluster_(cluster),
      observer_(opt.observer),
      duration_s_(opt.warmup_s + opt.period_s * opt.duration_days),
      load_start_s_(std::min(cluster.iaas.vm_boot_s + 2.0,
                             std::max(opt.warmup_s - 1.0, 0.0))),
      rng_(opt.seed),
      sp_(engine_, cluster.serverless, rng_.fork(1)),
      ip_(engine_, cluster.iaas, rng_.fork(2)) {
  AMOEBA_EXPECTS(opt.period_s > 0.0 && opt.duration_days > 0.0);
  AMOEBA_EXPECTS_MSG(opt.warmup_s >= cluster.iaas.vm_boot_s + 3.0,
                     "warmup must cover the VM boot time");
  if (opt.profiler != nullptr) engine_.set_profiler(opt.profiler);
  // Fault injection rides its own rng fork: a fault-free config creates no
  // injector and stays byte-identical to pre-fault-layer runs.
  if (opt.faults.any()) {
    faults_ = std::make_unique<sim::FaultInjector>(opt.faults, rng_.fork(4));
    sp_.set_fault_injector(faults_.get());
    ip_.set_fault_injector(faults_.get());
  }
}

void Node::admit(std::vector<workload::FunctionProfile> profiles,
                 int node_container_budget, int meter_reserve_containers) {
  AMOEBA_EXPECTS_MSG(!profiles.empty(), "a shared node needs a tenant");
  AMOEBA_EXPECTS_MSG(profiles_.empty(), "tenants are admitted once");
  AMOEBA_EXPECTS(node_container_budget > 0);
  AMOEBA_EXPECTS(meter_reserve_containers >= 3);
  // Meters first, so every monitor's start() finds them present and the
  // node budget stays intact count-wise: tenants split what remains.
  const int per_meter = std::max(1, meter_reserve_containers / 3);
  for (const auto kind : workload::kAllMeters) {
    sp_.register_function(workload::meter_profile(kind), per_meter);
  }
  const int tenant_budget = node_container_budget - 3 * per_meter;
  AMOEBA_EXPECTS_MSG(tenant_budget >= static_cast<int>(profiles.size()),
                     "container budget cannot cover every tenant");
  for (const auto& p : profiles) {
    vm_specs_.push_back(just_enough_vm(p, cluster_));
    asks_.push_back(solo_container_ask(vm_specs_.back()));
  }
  grants_ = core::split_container_budget(asks_, tenant_budget);
  profiles_ = std::move(profiles);
}

core::AmoebaConfig Node::co_tenant_config() const {
  AMOEBA_EXPECTS_MSG(!profiles_.empty(), "admit the tenants first");
  core::AmoebaConfig cfg =
      default_amoeba_config(DeploySystem::kAmoeba, kCoTenantTimelinePeriodS);
  cfg.controller.to_serverless_margin = kCoTenantToServerlessMargin;
  cfg.controller.to_iaas_margin = kCoTenantToIaasMargin;
  cfg.monitor.probe_qps =
      std::min(workload::kMeterProbeQps,
               kNodeProbeQpsPerMeter / static_cast<double>(profiles_.size()));
  cfg.observer = observer_;
  cfg.fault_injector = faults_.get();
  return cfg;
}

core::AmoebaRuntime& Node::start_tenant(
    const core::ServiceArtifacts& artifacts,
    const core::MeterCalibration& calibration,
    const core::AmoebaConfig& cfg) {
  const std::size_t i = tenants_.size();
  AMOEBA_EXPECTS_MSG(i < profiles_.size(), "every admitted tenant started");
  auto rt = std::make_unique<core::AmoebaRuntime>(engine_, sp_, ip_,
                                                  calibration, cfg,
                                                  rng_.fork(1000 + i));
  rt->add_service(profiles_[i], vm_specs_[i], artifacts, grants_[i]);
  rt->start();
  tenants_.push_back(std::move(rt));
  return *tenants_.back();
}

void Node::stop_tenants() {
  for (auto& rt : tenants_) rt->stop();
}

void Node::roll_up(NodeRunStats& out) const {
  out.duration_s = duration_s_;
  if (faults_) out.fault_counters = faults_->counters();
  out.trace_hash = engine_.trace_hash();
  out.events_executed = engine_.executed();
}

void Node::roll_up(NodeTotals& out) {
  roll_up(static_cast<NodeRunStats&>(out));
  for (const auto kind : workload::kAllMeters) {
    const std::string meter = workload::meter_profile(kind).name;
    out.meter_usage.cpu_core_seconds += sp_.cpu_core_seconds(meter);
    out.meter_usage.memory_mb_seconds +=
        sp_.memory_mb_seconds(meter, duration_s_);
  }
  for (const auto& fn : sp_.function_names()) {
    out.pool_memory_mb_seconds += sp_.memory_mb_seconds(fn, duration_s_);
  }
  out.peak_pool_containers = sp_.pool().peak_total_containers();
  out.peak_pool_memory_mb = sp_.pool().peak_memory_in_use_mb();
  out.pool_evictions = sp_.pool().evictions();
}

void Node::roll_up_tenant(std::size_t i, TenantResult& out,
                          NodeTotals& totals) {
  core::AmoebaRuntime& rt = *tenants_.at(i);
  out.name = profiles_[i].name;
  out.usage = rt.accountant().usage(out.name, duration_s_);
  out.switch_aborts = rt.execution_engine().switch_aborts();
  out.switch_retries = rt.execution_engine().switch_retries();
  out.prewarm_denied = sp_.stats(out.name).prewarm_denied;
  out.n_max_asked = asks_[i];
  out.n_max_granted = grants_[i];
  totals.tenants_usage += out.usage;
  totals.prewarm_denied_total += out.prewarm_denied;
}

}  // namespace amoeba::exp
