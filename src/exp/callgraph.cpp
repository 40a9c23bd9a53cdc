#include "exp/callgraph.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "obs/json.hpp"

namespace amoeba::exp {

namespace {

/// Budget renormalization tick (aware mode): the monitor sample period.
constexpr double kRenormPeriodS = 5.0;
/// Stage completions a renorm window needs before it moves the weight.
constexpr std::size_t kRenormMinSamples = 12;
/// Applied budgets >= this factor x the stage's ideal solo IaaS latency.
constexpr double kFeasibilityFloorFactor = 1.25;

/// One user query in flight across the DAG.
struct InFlightQuery {
  double arrival = 0.0;             ///< root injection time
  int remaining_stages = 0;         ///< stages not yet finished
  std::vector<int> waiting_parents; ///< per stage, parents still running
};

}  // namespace

const char* to_string(BudgetMode m) noexcept {
  switch (m) {
    case BudgetMode::kNaiveEqual: return "naive_equal";
    case BudgetMode::kEndToEndAware: return "e2e_aware";
  }
  return "?";
}

CallGraphRunResult run_callgraph(
    const workload::CallGraph& graph,
    const std::vector<core::ServiceArtifacts>& artifacts,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const CallGraphRunOptions& opt) {
  const auto n = static_cast<std::size_t>(graph.size());
  AMOEBA_EXPECTS_MSG(artifacts.size() == n,
                     "need one ServiceArtifacts per stage, canonical order");
  AMOEBA_EXPECTS_VALS(opt.e2e_qos_target_s > 0.0, opt.e2e_qos_target_s);
  Node node(cluster, opt);
  sim::Engine& engine = node.engine();

  // --- Budget decomposition -------------------------------------------
  // Every query crosses every stage, so each stage's provisioned peak is
  // the root peak.
  const double root_peak =
      opt.root_peak_qps > 0.0
          ? opt.root_peak_qps
          : graph.stage(graph.roots().front()).profile.peak_load_qps;
  AMOEBA_EXPECTS_VALS(root_peak > 0.0, root_peak);
  const double t_e2e = opt.e2e_qos_target_s;

  // Initial weights: the content-determined ideal solo IaaS latency (what
  // the decomposer would converge to on an uncontended node).
  const core::BudgetDecomposerConfig decomposer_cfg;
  std::vector<double> w0(n, 0.0);
  std::vector<double> floors(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& p = graph.stage(static_cast<int>(k)).profile;
    const double ideal =
        p.ideal_iaas_latency(cluster.iaas.disk_bps, cluster.iaas.net_bps);
    w0[k] = std::max(ideal, decomposer_cfg.min_weight_s);
    floors[k] = kFeasibilityFloorFactor * ideal;
    AMOEBA_EXPECTS_MSG(floors[k] < t_e2e,
                       "stage cannot meet the end-to-end target alone: " +
                           graph.service_name(static_cast<int>(k)));
  }
  core::BudgetDecomposer decomposer(graph, t_e2e, w0, decomposer_cfg);
  const std::vector<double> raw0 =
      opt.budget_mode == BudgetMode::kEndToEndAware
          ? decomposer.budgets()
          : core::BudgetDecomposer::equal_split(graph, t_e2e);
  std::vector<double> initial_budgets(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    initial_budgets[k] = std::clamp(raw0[k], floors[k], t_e2e);
  }

  // --- Stage admission + one AmoebaRuntime per stage ---------------------
  std::vector<workload::FunctionProfile> stage_profiles;
  stage_profiles.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    workload::FunctionProfile p = graph.stage(static_cast<int>(k)).profile;
    p.name = graph.service_name(static_cast<int>(k));
    p.peak_load_qps = root_peak;
    p.qos_target_s = initial_budgets[k];
    stage_profiles.push_back(std::move(p));
  }
  workload::DiurnalTraceConfig trace_cfg = diurnal_for(
      stage_profiles[static_cast<std::size_t>(graph.roots().front())],
      opt.period_s);
  trace_cfg.peak_qps = root_peak;
  node.admit(std::move(stage_profiles), opt.node_container_budget,
             opt.meter_reserve_containers);
  for (std::size_t k = 0; k < n; ++k) {
    core::AmoebaConfig cfg = node.co_tenant_config();
    switch (graph.stage(static_cast<int>(k)).pin) {
      case workload::StagePin::kManaged:
        break;
      case workload::StagePin::kIaasOnly:
        // Votes can never reach an astronomically large hysteresis
        // threshold, so the stage stays on its just-enough VM for good.
        cfg.controller.hysteresis_ticks = 1 << 20;
        break;
      case workload::StagePin::kServerlessOnly:
        // Bias, not a hard pin: leave for FaaS at the first calibrated
        // opportunity and disable every pull back to IaaS.
        cfg.controller.to_serverless_margin = 1.0;
        cfg.controller.to_iaas_margin = 1.5;
        cfg.controller.observed_violation_fraction = 1e9;
        cfg.controller.co_tenant_check = false;
        break;
    }
    cfg.stage_id = static_cast<int>(k);
    node.start_tenant(artifacts[k], calibration, cfg);
  }

  // --- Query propagation ----------------------------------------------
  // AND-join dataflow: a query enters every root at injection and enters
  // stage k once all parents(k) finished it. The ledger counts every
  // entry/exit so conservation is checkable after the run.
  struct Flow {
    Flow(const workload::CallGraph& g, Node& nd, double warmup,
         obs::Observer* obs)
        : graph(g), node(nd), warmup_s(warmup), observer(obs) {}

    const workload::CallGraph& graph;
    Node& node;
    double warmup_s;
    obs::Observer* observer;
    std::uint64_t next_id = 0;
    std::map<std::uint64_t, InFlightQuery> live;
    std::vector<std::uint64_t> submitted;
    std::vector<std::uint64_t> finished;
    std::vector<stats::SampleSet> stage_latencies;  ///< post-warmup
    std::vector<stats::SampleSet> renorm_window;    ///< since last renorm
    stats::SampleSet e2e_latencies;                 ///< post-warmup
    std::uint64_t completed = 0;

    [[nodiscard]] bool trace_on() const {
      return observer != nullptr && observer->trace_on();
    }

    void enter(std::uint64_t id, int s) {
      ++submitted[static_cast<std::size_t>(s)];
      node.tenant(static_cast<std::size_t>(s)).submit(
          graph.service_name(s),
          [this, id, s](const workload::QueryRecord& rec) {
            on_stage_done(id, s, rec);
          });
    }

    void inject(double now) {
      const std::uint64_t id = next_id++;
      InFlightQuery q;
      q.arrival = now;
      q.remaining_stages = graph.size();
      q.waiting_parents.resize(static_cast<std::size_t>(graph.size()));
      for (int k = 0; k < graph.size(); ++k) {
        q.waiting_parents[static_cast<std::size_t>(k)] =
            static_cast<int>(graph.parents(k).size());
      }
      live.emplace(id, std::move(q));
      if (trace_on()) {
        obs::Tracer& tr = observer->tracer();
        tr.async_begin(tr.track("callgraph/e2e"), "e2e", id, now, "query");
      }
      for (const int r : graph.roots()) enter(id, r);
    }

    void on_stage_done(std::uint64_t id, int s,
                       const workload::QueryRecord& rec) {
      const auto it = live.find(id);
      AMOEBA_INVARIANT_MSG(it != live.end(), "stage completion for a query "
                                             "that is not in flight");
      InFlightQuery& q = it->second;
      const auto si = static_cast<std::size_t>(s);
      ++finished[si];
      if (q.arrival >= warmup_s) stage_latencies[si].add(rec.latency());
      renorm_window[si].add(rec.latency());
      for (const int c : graph.children(s)) {
        const auto ci = static_cast<std::size_t>(c);
        AMOEBA_INVARIANT(q.waiting_parents[ci] > 0);
        if (--q.waiting_parents[ci] == 0) enter(id, c);
      }
      if (--q.remaining_stages == 0) {
        const double e2e = rec.completion - q.arrival;
        ++completed;
        if (q.arrival >= warmup_s) e2e_latencies.add(e2e);
        if (trace_on()) {
          obs::Tracer& tr = observer->tracer();
          tr.async_end(tr.track("callgraph/e2e"), "e2e", id, rec.completion,
                       "query", {obs::TraceArg::of("latency_s", e2e)});
        }
        live.erase(it);
      }
    }
  };
  Flow flow(graph, node, opt.warmup_s, opt.observer);
  flow.submitted.assign(n, 0);
  flow.finished.assign(n, 0);
  flow.stage_latencies.resize(n);
  flow.renorm_window.resize(n);

  // --- Budget renormalization tick (aware mode only) -------------------
  std::vector<double> final_budgets = initial_budgets;
  sim::EventId renorm_event = sim::kNoEvent;
  std::function<void()> renorm = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      if (flow.renorm_window[k].size() >= kRenormMinSamples) {
        decomposer.observe(static_cast<int>(k),
                           flow.renorm_window[k].quantile(0.95));
        flow.renorm_window[k].clear();
      }
    }
    const std::vector<double> b = decomposer.budgets();
    for (std::size_t k = 0; k < n; ++k) {
      const double target = std::clamp(b[k], floors[k], t_e2e);
      if (target != final_budgets[k]) {
        node.tenant(k).set_qos_target(
            graph.service_name(static_cast<int>(k)), target);
        final_budgets[k] = target;
      }
    }
    renorm_event = engine.schedule_in(kRenormPeriodS, renorm);
  };
  if (opt.budget_mode == BudgetMode::kEndToEndAware) {
    renorm_event = engine.schedule_in(kRenormPeriodS, renorm);
  }

  // --- Load: one Poisson stream at the DAG roots -----------------------
  workload::DiurnalTrace trace(trace_cfg, opt.seed ^ 0x51u);
  workload::PoissonLoadGenerator generator(
      engine, node.rng().fork(2000),
      [&trace](double now) { return trace.rate(now); }, trace.max_rate(),
      [&flow, &engine] { flow.inject(engine.now()); });
  engine.schedule(node.load_start_s(), [&generator] { generator.start(); });

  node.run();
  generator.stop();
  if (renorm_event != sim::kNoEvent) engine.cancel(renorm_event);
  node.stop_tenants();
  if (flow.trace_on()) {
    // Close the spans of queries cut off mid-flight — bookkeeping only,
    // after the last simulated event.
    obs::Tracer& tr = opt.observer->tracer();
    for (const auto& [id, q] : flow.live) {
      tr.async_end(tr.track("callgraph/e2e"), "e2e", id, engine.now(),
                   "query", {obs::TraceArg::of("outcome", "unfinished")});
    }
  }

  // --- Collection ------------------------------------------------------
  CallGraphRunResult result;
  result.budget_mode = opt.budget_mode;
  result.e2e_qos_target_s = t_e2e;
  result.e2e_latencies = flow.e2e_latencies;
  result.root_injected = flow.next_id;
  result.queries_completed = flow.completed;
  result.queries_unfinished = flow.live.size();
  result.stages.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    CallGraphStageResult& st = result.stages[k];
    node.roll_up_tenant(k, st, result);
    st.stage = static_cast<int>(k);
    st.label = graph.stage(static_cast<int>(k)).label;
    st.pin = graph.stage(static_cast<int>(k)).pin;
    st.initial_budget_s = initial_budgets[k];
    st.final_budget_s = final_budgets[k];
    st.latencies = flow.stage_latencies[k];
    st.submitted = flow.submitted[k];
    st.finished = flow.finished[k];
    st.switches = node.tenant(k).switch_events().size();
  }
  node.roll_up(result);

  AMOEBA_ENSURES_VALS(result.root_injected ==
                          result.queries_completed + result.queries_unfinished,
                      result.root_injected, result.queries_completed,
                      result.queries_unfinished);
  return result;
}

std::string callgraph_summary_json(const CallGraphRunResult& r) {
  std::string out = "{";
  out += "\"n_stages\": " +
         obs::json_number(static_cast<double>(r.stages.size()));
  out += ", \"budget_mode\": \"" + std::string(to_string(r.budget_mode)) +
         "\"";
  out += ", \"e2e_qos_target_s\": " + obs::json_number(r.e2e_qos_target_s);
  out += ", \"e2e_p95_s\": " + obs::json_number(r.e2e_p95());
  out += ", \"e2e_violation_fraction\": " +
         obs::json_number(r.e2e_violation_fraction());
  out += ", \"duration_s\": " + obs::json_number(r.duration_s);
  out += ", \"trace_hash\": \"" + hash_hex(r.trace_hash) + "\"";
  out += ", \"root_injected\": " +
         obs::json_number(static_cast<double>(r.root_injected));
  out += ", \"queries_completed\": " +
         obs::json_number(static_cast<double>(r.queries_completed));
  out += ", \"queries_unfinished\": " +
         obs::json_number(static_cast<double>(r.queries_unfinished));
  out += ", \"total_core_hours\": " + obs::json_number(r.total_core_hours());
  out += ", \"total_memory_gb_hours\": " +
         obs::json_number(r.total_memory_gb_hours());
  out += ", \"peak_pool_containers\": " +
         obs::json_number(static_cast<double>(r.peak_pool_containers));
  out += ", \"prewarm_denied\": " +
         obs::json_number(static_cast<double>(r.prewarm_denied_total));
  out += ", \"stages\": [";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const CallGraphStageResult& s = r.stages[i];
    if (i > 0) out += ", ";
    out += "{\"stage\": " + obs::json_number(static_cast<double>(s.stage));
    out += ", \"name\": \"" + obs::json_escape(s.name) + "\"";
    out += ", \"label\": \"" + obs::json_escape(s.label) + "\"";
    out += ", \"pin\": \"" + std::string(workload::to_string(s.pin)) + "\"";
    out += ", \"initial_budget_s\": " + obs::json_number(s.initial_budget_s);
    out += ", \"final_budget_s\": " + obs::json_number(s.final_budget_s);
    out += ", \"submitted\": " +
           obs::json_number(static_cast<double>(s.submitted));
    out += ", \"finished\": " +
           obs::json_number(static_cast<double>(s.finished));
    out += ", \"p95_s\": " + obs::json_number(s.p95());
    out += ", \"switches\": " +
           obs::json_number(static_cast<double>(s.switches));
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
