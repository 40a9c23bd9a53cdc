#include "exp/node.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "core/budget_decomposer.hpp"
#include "core/queueing.hpp"
#include "exp/scenario.hpp"
#include "obs/json.hpp"
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
/// Budget renormalization tick (aware mode): the monitor sample period.
constexpr double kRenormPeriodS = 5.0;
/// Stage completions a renorm window needs before it moves the weight (one
/// accidental cold start must not own the window).
constexpr std::size_t kRenormMinSamples = 12;
/// Applied budgets >= this factor x the stage's ideal solo IaaS latency:
/// an M/M/c system cannot beat its own service time, and the just-enough
/// VM sizing would reject an infeasible target outright.
constexpr double kFeasibilityFloorFactor = 1.25;

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

std::size_t Node::add_load(const workload::DiurnalTraceConfig& cfg,
                           std::uint64_t trace_seed, std::uint64_t rng_fork,
                           workload::ArrivalFn on_arrival) {
  const auto& trace =
      traces_.emplace_back(std::make_unique<workload::DiurnalTrace>(
          cfg, trace_seed));
  generators_.push_back(std::make_unique<workload::PoissonLoadGenerator>(
      engine_, rng_.fork(rng_fork),
      [t = trace.get()](double now) { return t->rate(now); },
      trace->max_rate(), std::move(on_arrival)));
  return generators_.size() - 1;
}

void Node::start_load(std::size_t i) { generators_.at(i)->start(); }

void Node::schedule_load_start(std::size_t i) {
  engine_.schedule(load_start_s_,
                   [g = generators_.at(i).get()] { g->start(); });
}

void Node::run() {
  engine_.run_until(duration_s_);
  for (auto& g : generators_) g->stop();
}

void Node::roll_up(NodeRunStats& out) const {
  out.duration_s = duration_s_;
  if (faults_) out.fault_counters = faults_->counters();
  out.trace_hash = engine_.trace_hash();
  out.events_executed = engine_.executed();
}

const char* to_string(BudgetMode m) noexcept {
  switch (m) {
    case BudgetMode::kNaiveEqual: return "naive_equal";
    case BudgetMode::kEndToEndAware: return "e2e_aware";
  }
  return "?";
}

namespace {

/// One user query in flight across a call graph.
struct InFlightQuery {
  double arrival = 0.0;              ///< root injection time
  int remaining_stages = 0;          ///< stages not yet finished
  std::vector<int> waiting_parents;  ///< per stage, parents still running
};

/// One stage on the node: its runtime, its result so far and, when a
/// renorm tick reads it, its window of completions since the last tick.
struct StageFlow {
  std::unique_ptr<core::AmoebaRuntime> rt;
  StageResult out;  ///< final_budget_s is the budget applied now
  stats::SampleSet renorm_window;

  void finish(bool post_warmup, double latency) {
    ++out.finished;
    if (post_warmup) out.latencies.add(latency);
  }
};

/// Router and budget state of one component.
struct ComponentFlow {
  const NodeComponent* spec = nullptr;
  std::vector<StageFlow> stages;  ///< canonical order
  workload::DiurnalTraceConfig load;  ///< the stream at the roots
  std::vector<int> parent_counts;     ///< per stage, in canonical order
  std::vector<double> floors;
  std::optional<core::BudgetDecomposer> decomposer;  ///< aware mode only
  sim::EventId renorm_event = sim::kNoEvent;
  std::map<std::uint64_t, InFlightQuery> live;  ///< call graphs, by id
  ComponentResult out;  ///< stages are moved in after the run
};

/// Plans the load and the stage budgets of `f` and appends each stage's
/// admission profile: named, provisioned for the root peak, targeted at its
/// budget.
void plan_stages(const ClusterConfig& cluster, double period_s,
                 ComponentFlow& f,
                 std::vector<workload::FunctionProfile>& profiles) {
  const NodeComponent& c = *f.spec;
  const workload::CallGraph& g = c.graph;
  const auto n = static_cast<std::size_t>(g.size());
  AMOEBA_EXPECTS_MSG(c.artifacts.size() == n,
                     "need one ServiceArtifacts per stage, canonical order");
  AMOEBA_EXPECTS_MSG(
      c.call_graph || (n == 1 && c.budget_mode == BudgetMode::kNaiveEqual),
      "a plain tenant has one stage and a fixed budget");
  AMOEBA_EXPECTS_VALS(c.e2e_qos_target_s > 0.0, c.e2e_qos_target_s);
  const double t_e2e = c.e2e_qos_target_s;
  const workload::FunctionProfile& root = g.stage(g.roots().front()).profile;
  const double root_peak =
      c.root_peak_qps > 0.0 ? c.root_peak_qps : root.peak_load_qps;
  AMOEBA_EXPECTS_VALS(root_peak > 0.0, root_peak);
  f.load = diurnal_for(root, period_s, c.phase);
  f.load.peak_qps = root_peak;

  // Initial weights: the content-determined ideal solo IaaS latency (what
  // the decomposer would converge to on an uncontended node).
  const core::BudgetDecomposerConfig decomposer_cfg;
  std::vector<double> w0;
  for (int k = 0; k < g.size(); ++k) {
    const auto& p = g.stage(k).profile;
    const double ideal =
        p.ideal_iaas_latency(cluster.iaas.disk_bps, cluster.iaas.net_bps);
    w0.push_back(std::max(ideal, decomposer_cfg.min_weight_s));
    f.floors.push_back(kFeasibilityFloorFactor * ideal);
    f.parent_counts.push_back(static_cast<int>(g.parents(k).size()));
    AMOEBA_EXPECTS_MSG(f.floors.back() < t_e2e,
                       "stage cannot meet the end-to-end target alone: " +
                           p.name);
  }
  if (c.budget_mode == BudgetMode::kEndToEndAware) {
    f.decomposer.emplace(g, t_e2e, w0, decomposer_cfg);
  }
  const std::vector<double> raw0 =
      f.decomposer ? f.decomposer->budgets()
                   : core::BudgetDecomposer::equal_split(g, t_e2e);

  f.stages.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    StageResult& out = f.stages[k].out;
    out.initial_budget_s = out.final_budget_s =
        std::clamp(raw0[k], f.floors[k], t_e2e);
    workload::FunctionProfile p = g.stage(static_cast<int>(k)).profile;
    if (c.call_graph) p.name = g.service_name(static_cast<int>(k));
    p.peak_load_qps = root_peak;
    p.qos_target_s = out.initial_budget_s;
    out.name = p.name;
    profiles.push_back(std::move(p));
  }
}

/// The tuning every co-tenant runtime starts from (see the file comment),
/// plus the stage's deployment pin.
core::AmoebaConfig co_tenant_config(std::size_t tenants,
                                    obs::Observer* observer,
                                    sim::FaultInjector* faults,
                                    workload::StagePin pin) {
  core::AmoebaConfig cfg =
      default_amoeba_config(DeploySystem::kAmoeba, kCoTenantTimelinePeriodS);
  cfg.controller.to_serverless_margin = kCoTenantToServerlessMargin;
  cfg.controller.to_iaas_margin = kCoTenantToIaasMargin;
  cfg.monitor.probe_qps =
      std::min(workload::kMeterProbeQps,
               kNodeProbeQpsPerMeter / static_cast<double>(tenants));
  cfg.observer = observer;
  cfg.fault_injector = faults;
  switch (pin) {
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
  return cfg;
}

/// Folds each full renorm window's p95 into the decomposer and pushes the
/// clamped budgets that moved into their stages' controllers.
void renorm_tick(ComponentFlow& f, sim::Engine& engine) {
  for (std::size_t k = 0; k < f.stages.size(); ++k) {
    stats::SampleSet& window = f.stages[k].renorm_window;
    if (window.size() >= kRenormMinSamples) {
      f.decomposer->observe(static_cast<int>(k), window.quantile(0.95));
      window.clear();
    }
  }
  const std::vector<double> b = f.decomposer->budgets();
  for (std::size_t k = 0; k < f.stages.size(); ++k) {
    StageResult& out = f.stages[k].out;
    const double target =
        std::clamp(b[k], f.floors[k], f.spec->e2e_qos_target_s);
    if (target != out.final_budget_s) {
      f.stages[k].rt->set_qos_target(out.name, target);
      out.final_budget_s = target;
    }
  }
  f.renorm_event = engine.schedule_in(
      kRenormPeriodS, [&f, &engine] { renorm_tick(f, engine); });
}

/// The AND-join query router: a query enters every root of its component
/// at injection and enters stage k once all parents(k) finished it. A
/// plain tenant's query needs no in-flight state: its one completion
/// finishes it. Completion callbacks hold the router's address, so it is
/// neither copied nor moved.
struct Router {
  Router(double warmup, obs::Observer* obs)
      : warmup_s(warmup), observer(obs) {}
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  double warmup_s;
  obs::Observer* observer;
  std::uint64_t next_id = 0;

  void inject(ComponentFlow& c, double now) {
    ++c.out.root_injected;
    if (!c.spec->call_graph) {
      StageFlow& st = c.stages.front();
      ++st.out.submitted;
      st.rt->submit(st.out.name, [&st, post_warmup = now >= warmup_s](
                                     const workload::QueryRecord& rec) {
        st.finish(post_warmup, rec.latency());
      });
      return;
    }
    const workload::CallGraph& g = c.spec->graph;
    const std::uint64_t id = next_id++;
    c.live.emplace(id, InFlightQuery{now, g.size(), c.parent_counts});
    if (trace_on()) {
      obs::Tracer& tr = observer->tracer();
      tr.async_begin(tr.track("callgraph/e2e"), "e2e", id, now, "query");
    }
    for (const int r : g.roots()) enter(c, id, r);
  }

  /// Closes the spans of queries cut off mid-flight — bookkeeping only,
  /// after the last simulated event.
  void close_spans(const ComponentFlow& c, double now) {
    if (!trace_on()) return;
    obs::Tracer& tr = observer->tracer();
    for (const auto& [id, q] : c.live) {
      tr.async_end(tr.track("callgraph/e2e"), "e2e", id, now, "query",
                   {obs::TraceArg::of("outcome", "unfinished")});
    }
  }

  [[nodiscard]] bool trace_on() const {
    return observer != nullptr && observer->trace_on();
  }

  void enter(ComponentFlow& c, std::uint64_t id, int s) {
    StageFlow& st = c.stages[static_cast<std::size_t>(s)];
    ++st.out.submitted;
    st.rt->submit(st.out.name, [this, &c, id, s](
                                   const workload::QueryRecord& rec) {
      on_stage_done(c, id, s, rec);
    });
  }

  void on_stage_done(ComponentFlow& c, std::uint64_t id, int s,
                     const workload::QueryRecord& rec) {
    const auto it = c.live.find(id);
    AMOEBA_INVARIANT_MSG(it != c.live.end(), "stage completion for a query "
                                            "that is not in flight");
    InFlightQuery& q = it->second;
    const bool post_warmup = q.arrival >= warmup_s;
    StageFlow& st = c.stages[static_cast<std::size_t>(s)];
    st.finish(post_warmup, rec.latency());
    // Only a renorm tick reads (and clears) the window.
    if (c.decomposer) st.renorm_window.add(rec.latency());
    for (const int child : c.spec->graph.children(s)) {
      const auto ci = static_cast<std::size_t>(child);
      AMOEBA_INVARIANT(q.waiting_parents[ci] > 0);
      if (--q.waiting_parents[ci] == 0) enter(c, id, child);
    }
    if (--q.remaining_stages == 0) {
      const double e2e = rec.completion - q.arrival;
      ++c.out.queries_completed;
      if (post_warmup) c.out.e2e_latencies.add(e2e);
      if (trace_on()) {
        obs::Tracer& tr = observer->tracer();
        tr.async_end(tr.track("callgraph/e2e"), "e2e", id, rec.completion,
                     "query", {obs::TraceArg::of("latency_s", e2e)});
      }
      c.live.erase(it);
    }
  }
};

}  // namespace

NodeRunResult run_node(const std::vector<NodeComponent>& components,
                       const ClusterConfig& cluster,
                       const core::MeterCalibration& calibration,
                       const CoTenantRunOptions& opt) {
  AMOEBA_EXPECTS_MSG(!components.empty(), "a node run needs a component");
  AMOEBA_EXPECTS(opt.meter_reserve_containers >= 3);
  Node node(cluster, opt);
  sim::Engine& engine = node.engine();
  serverless::ServerlessPlatform& sp = node.serverless_platform();

  // Sized once: runtimes and callbacks hold the flows' addresses.
  std::vector<ComponentFlow> flows(components.size());
  std::vector<workload::FunctionProfile> profiles;
  for (std::size_t c = 0; c < components.size(); ++c) {
    flows[c].spec = &components[c];
    plan_stages(cluster, opt.period_s, flows[c], profiles);
  }

  // Admission. Meters first, each capped at its share of the reserve (so
  // tenant prewarms can never starve probing, and every monitor's start()
  // finds them present); the tenants split what remains of the budget
  // in proportion to their just-enough asks.
  const int per_meter = std::max(1, opt.meter_reserve_containers / 3);
  for (const auto kind : workload::kAllMeters) {
    sp.register_function(workload::meter_profile(kind), per_meter);
  }
  const int tenant_budget = opt.node_container_budget - 3 * per_meter;
  AMOEBA_EXPECTS_MSG(tenant_budget >= static_cast<int>(profiles.size()),
                     "container budget cannot cover every tenant");
  std::vector<iaas::VmSpec> vms;
  std::vector<int> asks;
  for (const auto& p : profiles) {
    vms.push_back(just_enough_vm(p, cluster));
    asks.push_back(solo_container_ask(vms.back()));
  }
  const std::vector<int> grants =
      core::split_container_budget(asks, tenant_budget);

  // One runtime per stage, numbered in component order (run rng fork
  // 1000 + i).
  std::size_t i = 0;
  for (ComponentFlow& f : flows) {
    for (std::size_t k = 0; k < f.stages.size(); ++k, ++i) {
      StageFlow& st = f.stages[k];
      const auto stage = static_cast<int>(k);
      core::AmoebaConfig cfg =
          co_tenant_config(profiles.size(), opt.observer, node.faults(),
                           f.spec->graph.stage(stage).pin);
      if (f.spec->call_graph) cfg.stage_id = stage;
      st.rt = std::make_unique<core::AmoebaRuntime>(
          engine, sp, node.iaas_platform(), calibration, cfg,
          node.rng().fork(1000 + i));
      st.rt->add_service(profiles[i], vms[i], f.spec->artifacts[k],
                         grants[i]);
      st.rt->start();
      st.out.n_max_asked = asks[i];
      st.out.n_max_granted = grants[i];
    }
  }

  // One diurnal stream per component, at its roots.
  Router router(opt.warmup_s, opt.observer);
  for (std::size_t c = 0; c < flows.size(); ++c) {
    ComponentFlow& f = flows[c];
    const std::size_t load = node.add_load(
        f.load, opt.seed ^ (0x51u + static_cast<unsigned>(c)), 2000 + c,
        [&router, &f, &engine] { router.inject(f, engine.now()); });
    if (f.decomposer) {
      f.renorm_event = engine.schedule_in(
          kRenormPeriodS, [&f, &engine] { renorm_tick(f, engine); });
    }
    node.schedule_load_start(load);
  }

  node.run();
  for (ComponentFlow& f : flows) {
    if (f.renorm_event != sim::kNoEvent) engine.cancel(f.renorm_event);
    for (StageFlow& st : f.stages) st.rt->stop();
    router.close_spans(f, engine.now());
  }

  NodeRunResult result;
  node.roll_up(result);
  const double duration = node.duration_s();
  for (ComponentFlow& f : flows) {
    for (StageFlow& st : f.stages) {
      StageResult& out = st.out;
      out.usage = st.rt->accountant().usage(out.name, duration);
      out.switch_aborts = st.rt->execution_engine().switch_aborts();
      out.switch_retries = st.rt->execution_engine().switch_retries();
      out.prewarm_denied = sp.stats(out.name).prewarm_denied;
      out.switches = st.rt->switch_events();
      result.tenants_usage += out.usage;
      result.prewarm_denied_total += out.prewarm_denied;
      f.out.stages.push_back(std::move(out));
    }
    // Query conservation: every injected query either completed (on every
    // stage; a plain tenant's with its one stage) or is still in flight.
    ComponentResult& out = f.out;
    if (f.spec->call_graph) {
      out.queries_unfinished = f.live.size();
    } else {
      out.queries_completed = out.stages[0].finished;
      out.queries_unfinished = out.stages[0].submitted - out.stages[0].finished;
    }
    AMOEBA_ENSURES_VALS(
        out.root_injected == out.queries_completed + out.queries_unfinished,
        out.root_injected, out.queries_completed, out.queries_unfinished);
    result.components.push_back(std::move(out));
  }
  for (const auto kind : workload::kAllMeters) {
    const std::string meter = workload::meter_profile(kind).name;
    result.meter_usage.cpu_core_seconds += sp.cpu_core_seconds(meter);
    result.meter_usage.memory_mb_seconds +=
        sp.memory_mb_seconds(meter, duration);
  }
  for (const auto& fn : sp.function_names()) {
    result.pool_memory_mb_seconds += sp.memory_mb_seconds(fn, duration);
  }
  result.peak_pool_containers = sp.pool().peak_total_containers();
  result.peak_pool_memory_mb = sp.pool().peak_memory_in_use_mb();
  result.pool_evictions = sp.pool().evictions();
  return result;
}

SummaryJson& SummaryJson::raw(std::string_view key, std::string_view json) {
  if (out_.size() > 1) out_ += ", ";
  out_ += '"';
  out_ += key;
  out_ += "\": ";
  out_ += json;
  return *this;
}

SummaryJson& SummaryJson::num(std::string_view key, double v) {
  return raw(key, obs::json_number(v));
}

SummaryJson& SummaryJson::str(std::string_view key, std::string_view v) {
  return raw(key, '"' + obs::json_escape(v) + '"');
}

SummaryJson& SummaryJson::totals(const NodeTotals& r) {
  return num("total_core_hours", r.total_core_hours())
      .num("total_memory_gb_hours", r.total_memory_gb_hours())
      .num("peak_pool_containers",
           static_cast<double>(r.peak_pool_containers));
}

SummaryJson& SummaryJson::tenant(const TenantResult& t,
                                 std::size_t switches) {
  return num("switches", static_cast<double>(switches))
      .num("switch_aborts", static_cast<double>(t.switch_aborts))
      .num("switch_retries", static_cast<double>(t.switch_retries))
      .num("prewarm_denied", static_cast<double>(t.prewarm_denied))
      .num("n_max_asked", static_cast<double>(t.n_max_asked))
      .num("n_max_granted", static_cast<double>(t.n_max_granted))
      .num("core_seconds", t.usage.cpu_core_seconds)
      .num("memory_mb_seconds", t.usage.memory_mb_seconds);
}

}  // namespace amoeba::exp
