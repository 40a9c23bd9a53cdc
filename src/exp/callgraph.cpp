#include "exp/callgraph.hpp"

#include <utility>

namespace amoeba::exp {

CallGraphRunResult run_callgraph(
    const workload::CallGraph& graph,
    const std::vector<core::ServiceArtifacts>& artifacts,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const CallGraphRunOptions& opt) {
  NodeRunResult node = run_node(
      {NodeComponent{.graph = graph,
                     .artifacts = artifacts,
                     .e2e_qos_target_s = opt.e2e_qos_target_s,
                     .budget_mode = opt.budget_mode,
                     .root_peak_qps = opt.root_peak_qps}},
      cluster, calibration, opt);
  ComponentResult& c = node.components.front();

  CallGraphRunResult result;
  static_cast<NodeTotals&>(result) = node;
  result.budget_mode = opt.budget_mode;
  result.e2e_qos_target_s = opt.e2e_qos_target_s;
  result.e2e_latencies = std::move(c.e2e_latencies);
  result.root_injected = c.root_injected;
  result.queries_completed = c.queries_completed;
  result.queries_unfinished = c.queries_unfinished;
  for (std::size_t k = 0; k < c.stages.size(); ++k) {
    StageResult& in = c.stages[k];
    const workload::CallGraphStage& decl = graph.stage(static_cast<int>(k));
    result.stages.push_back(CallGraphStageResult{
        {std::move(in)}, static_cast<int>(k), decl.label, decl.pin,
        in.initial_budget_s, in.final_budget_s, in.submitted, in.finished,
        in.switches.size()});
  }
  return result;
}

namespace {

std::string stage_json(const CallGraphStageResult& s) {
  return SummaryJson()
      .num("stage", static_cast<double>(s.stage))
      .str("name", s.name)
      .str("label", s.label)
      .str("pin", workload::to_string(s.pin))
      .num("initial_budget_s", s.initial_budget_s)
      .num("final_budget_s", s.final_budget_s)
      .num("submitted", static_cast<double>(s.submitted))
      .num("finished", static_cast<double>(s.finished))
      .num("p95_s", s.p95())
      .tenant(s, s.switches)
      .close();
}

}  // namespace

std::string callgraph_summary_json(const CallGraphRunResult& r) {
  return SummaryJson()
      .num("n_stages", static_cast<double>(r.stages.size()))
      .str("budget_mode", to_string(r.budget_mode))
      .num("e2e_qos_target_s", r.e2e_qos_target_s)
      .num("e2e_p95_s", r.e2e_p95())
      .num("e2e_violation_fraction", r.e2e_violation_fraction())
      .num("duration_s", r.duration_s)
      .str("trace_hash", hash_hex(r.trace_hash))
      .num("root_injected", static_cast<double>(r.root_injected))
      .num("queries_completed", static_cast<double>(r.queries_completed))
      .num("queries_unfinished", static_cast<double>(r.queries_unfinished))
      .totals(r)
      .num("prewarm_denied", static_cast<double>(r.prewarm_denied_total))
      .array("stages", r.stages, stage_json)
      .close();
}

Table callgraph_table(const CallGraphRunResult& r) {
  Table t({"stage", "label", "pin", "budget0_s", "budget_s", "queries",
           "p95_s", "switches", "core_h"});
  for (const auto& s : r.stages) {
    t.add_row({std::to_string(s.stage) + ":" + s.name, s.label,
               workload::to_string(s.pin), fmt_fixed(s.initial_budget_s, 3),
               fmt_fixed(s.final_budget_s, 3), std::to_string(s.finished),
               fmt_fixed(s.p95(), 3), std::to_string(s.switches),
               fmt_fixed(s.usage.cpu_core_seconds / 3600.0, 2)});
  }
  t.add_row({"E2E", to_string(r.budget_mode), "-",
             fmt_fixed(r.e2e_qos_target_s, 3),
             fmt_fixed(r.e2e_qos_target_s, 3),
             std::to_string(r.queries_completed), fmt_fixed(r.e2e_p95(), 3),
             "-", fmt_fixed(r.total_core_hours(), 2)});
  return t;
}

}  // namespace amoeba::exp
