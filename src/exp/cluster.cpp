#include "exp/cluster.hpp"

#include <memory>
#include <utility>

#include "obs/json.hpp"

namespace amoeba::exp {

std::vector<workload::FunctionProfile> cluster_tenants(int n,
                                                       double peak_fraction) {
  AMOEBA_EXPECTS(n > 0);
  const auto suite = workload::functionbench_suite();
  std::vector<workload::FunctionProfile> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(workload::as_tenant(
        suite[static_cast<std::size_t>(i) % suite.size()], i, peak_fraction));
  }
  return out;
}

ClusterRunResult run_cluster(const std::vector<ClusterServiceSpec>& specs,
                             const ClusterConfig& cluster,
                             const core::MeterCalibration& calibration,
                             const ClusterRunOptions& opt) {
  AMOEBA_EXPECTS_MSG(!specs.empty(), "cluster run needs at least one service");
  const std::size_t n = specs.size();
  Node node(cluster, opt);
  std::vector<workload::FunctionProfile> profiles;
  profiles.reserve(n);
  for (const auto& spec : specs) profiles.push_back(spec.profile);
  node.admit(std::move(profiles), opt.node_container_budget,
             opt.meter_reserve_containers);
  RunRecorder recorder(opt.warmup_s);

  // One AmoebaRuntime per tenant — its own monitor, controller and engine —
  // all over the same two platforms, each with its own phase-offset load.
  std::vector<std::unique_ptr<workload::DiurnalTrace>> traces;
  std::vector<std::unique_ptr<workload::PoissonLoadGenerator>> generators;
  traces.reserve(n);
  generators.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ClusterServiceSpec& spec = specs[i];
    core::AmoebaRuntime& runtime =
        node.start_tenant(spec.artifacts, calibration, node.co_tenant_config());
    auto trace = std::make_unique<workload::DiurnalTrace>(
        diurnal_for(spec.profile, opt.period_s, spec.phase),
        opt.seed ^ (0x51u + static_cast<unsigned>(i)));
    const std::string name = spec.profile.name;
    const auto observer = recorder.observer(name);
    generators.push_back(std::make_unique<workload::PoissonLoadGenerator>(
        node.engine(), node.rng().fork(2000 + static_cast<std::uint64_t>(i)),
        [t = trace.get()](double now) { return t->rate(now); },
        trace->max_rate(), [rt = &runtime, name, observer] {
          rt->submit(name, observer);
        }));
    traces.push_back(std::move(trace));
  }
  for (auto& gen : generators) {
    node.engine().schedule(node.load_start_s(), [g = gen.get()] { g->start(); });
  }

  node.run();
  for (auto& gen : generators) gen->stop();
  node.stop_tenants();

  ClusterRunResult result;
  result.services.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ClusterServiceResult& svc = result.services[i];
    node.roll_up_tenant(i, svc, result);
    svc.qos_target_s = specs[i].profile.qos_target_s;
    if (recorder.count(svc.name) > 0) {
      svc.latencies = recorder.latencies(svc.name);
    }
    svc.queries = recorder.count(svc.name);
    svc.switches = node.tenant(i).switch_events();
  }
  node.roll_up(result);
  return result;
}

std::string cluster_summary_json(const ClusterRunResult& r) {
  std::string out = "{";
  out += "\"n_services\": " +
         obs::json_number(static_cast<double>(r.services.size()));
  out += ", \"duration_s\": " + obs::json_number(r.duration_s);
  out += ", \"trace_hash\": \"" + hash_hex(r.trace_hash) + "\"";
  out += ", \"total_core_hours\": " + obs::json_number(r.total_core_hours());
  out += ", \"total_memory_gb_hours\": " +
         obs::json_number(r.total_memory_gb_hours());
  out += ", \"peak_pool_containers\": " +
         obs::json_number(static_cast<double>(r.peak_pool_containers));
  out += ", \"peak_pool_memory_mb\": " +
         obs::json_number(r.peak_pool_memory_mb);
  out += ", \"pool_evictions\": " +
         obs::json_number(static_cast<double>(r.pool_evictions));
  out += ", \"prewarm_denied\": " +
         obs::json_number(static_cast<double>(r.prewarm_denied_total));
  out += ", \"services\": [";
  for (std::size_t i = 0; i < r.services.size(); ++i) {
    const ClusterServiceResult& s = r.services[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + obs::json_escape(s.name) + "\"";
    out += ", \"qos_target_s\": " + obs::json_number(s.qos_target_s);
    out += ", \"queries\": " +
           obs::json_number(static_cast<double>(s.queries));
    out += ", \"p95_s\": " + obs::json_number(s.p95());
    out += ", \"violation_fraction\": " +
           obs::json_number(s.violation_fraction());
    out += ", \"switches\": " +
           obs::json_number(static_cast<double>(s.switches.size()));
    out += ", \"switch_aborts\": " +
           obs::json_number(static_cast<double>(s.switch_aborts));
    out += ", \"switch_retries\": " +
           obs::json_number(static_cast<double>(s.switch_retries));
    out += ", \"prewarm_denied\": " +
           obs::json_number(static_cast<double>(s.prewarm_denied));
    out += ", \"n_max_asked\": " +
           obs::json_number(static_cast<double>(s.n_max_asked));
    out += ", \"n_max_granted\": " +
           obs::json_number(static_cast<double>(s.n_max_granted));
    out += ", \"core_seconds\": " + obs::json_number(s.usage.cpu_core_seconds);
    out += ", \"memory_mb_seconds\": " +
           obs::json_number(s.usage.memory_mb_seconds);
    out += "}";
  }
  out += "]}";
  return out;
}

Table cluster_table(const ClusterRunResult& r) {
  Table t({"service", "qos_s", "queries", "p95_s", "viol", "switches",
           "n_max", "core_h", "mem_GBh"});
  for (const auto& s : r.services) {
    t.add_row({s.name, fmt_fixed(s.qos_target_s, 3),
               std::to_string(s.queries), fmt_fixed(s.p95(), 3),
               fmt_percent(s.violation_fraction()),
               std::to_string(s.switches.size()),
               std::to_string(s.n_max_granted) + "/" +
                   std::to_string(s.n_max_asked),
               fmt_fixed(s.usage.cpu_core_seconds / 3600.0, 2),
               fmt_fixed(s.usage.memory_mb_seconds / (1024.0 * 3600.0), 2)});
  }
  t.add_row({"TOTAL(+meters)", "-", "-", "-", "-", "-", "-",
             fmt_fixed(r.total_core_hours(), 2),
             fmt_fixed(r.total_memory_gb_hours(), 2)});
  return t;
}

}  // namespace amoeba::exp
