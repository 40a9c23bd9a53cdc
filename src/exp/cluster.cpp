#include "exp/cluster.hpp"

#include <utility>

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
  std::vector<NodeComponent> components;
  components.reserve(specs.size());
  for (const auto& spec : specs) {
    workload::CallGraph::Builder b;
    b.add_stage(spec.profile.name, spec.profile);
    components.push_back(
        NodeComponent{.graph = b.build(),
                      .artifacts = {&spec.artifacts, 1},
                      .e2e_qos_target_s = spec.profile.qos_target_s,
                      .phase = spec.phase,
                      .call_graph = false});
  }
  NodeRunResult node = run_node(components, cluster, calibration, opt);

  ClusterRunResult result;
  static_cast<NodeTotals&>(result) = node;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    StageResult& st = node.components[i].stages.front();
    const std::uint64_t queries = st.latencies.size();
    result.services.push_back(ClusterServiceResult{
        {std::move(st)}, specs[i].profile.qos_target_s, queries,
        std::move(st.switches)});
  }
  return result;
}

namespace {

std::string service_json(const ClusterServiceResult& s) {
  return SummaryJson()
      .str("name", s.name)
      .num("qos_target_s", s.qos_target_s)
      .num("queries", static_cast<double>(s.queries))
      .num("p95_s", s.p95())
      .num("violation_fraction", s.violation_fraction())
      .tenant(s, s.switches.size())
      .close();
}

}  // namespace

std::string cluster_summary_json(const ClusterRunResult& r) {
  return SummaryJson()
      .num("n_services", static_cast<double>(r.services.size()))
      .num("duration_s", r.duration_s)
      .str("trace_hash", hash_hex(r.trace_hash))
      .totals(r)
      .num("peak_pool_memory_mb", r.peak_pool_memory_mb)
      .num("pool_evictions", static_cast<double>(r.pool_evictions))
      .num("prewarm_denied", static_cast<double>(r.prewarm_denied_total))
      .array("services", r.services, service_json)
      .close();
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
