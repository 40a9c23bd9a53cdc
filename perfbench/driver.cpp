// perfbench driver: one workload of the repository benchmark per process.
//
//   perfbench_driver fill-cache --cache DIR [--threads N]
//   perfbench_driver run  --workload W --seed S --seconds T --cache DIR
//                         --trace 0|1
//   perfbench_driver day  --workload W --seed S --days F --cache DIR
//
// `fill-cache` profiles the meter calibration and every FunctionBench
// service once (the cold path users pay) into a cache directory that
// perfbench/run.py keys to this very binary. `run` loads that cache (the
// timed set-up), then either measures the workload end to end with tracing
// off (--trace 0) or makes one untraced and one traced run and reports the
// per-layer self times, counters and probes (--trace 1). `day` runs the
// workload once at `F` days and reports its query count and peak RSS; two
// such processes give the retained bytes per query.
//
// Every mode prints exactly one JSON object on stdout. Output checks
// (same-seed determinism, conservation ledgers, the all-Nameko bound,
// complete profiling artifacts) are collected into "errors"; any error sets
// "correct" to false and the exit code to 1.
//
// Workloads (single-threaded: SweepExecutor is never used and profiling
// runs with ProfilingConfig::threads = 1):
//   cluster_day    exp::run_cluster, N=12 cluster_tenants(12, 0.5) at phase
//                  offsets i/12, one 1800 s compressed diurnal day.
//   callgraph_day  exp::run_callgraph, front→{search, ads}→render diamond,
//                  kEndToEndAware, 12 root qps, one 1800 s day.
//   profile_sweep  exp::profile_service for float over the profiling grid,
//                  from an empty cache.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/artifact_cache.hpp"
#include "exp/callgraph.hpp"
#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "probes.hpp"
#include "workload/functionbench.hpp"

namespace {

using namespace amoeba;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- helpers

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A field of /proc/self/status (e.g. VmRSS) in MB; 0 if unreadable.
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Host-speed yardstick: a fixed floating-point loop written here, so no
/// change to the simulator can move it. On a shared host the simulator's
/// speed drifts by tens of percent for minutes at a time (clock speed, a
/// busy sibling hyper-thread); this loop drifts with it.
double yardstick_s() {
  const auto t0 = Clock::now();
  double x = 1.0;
  for (int i = 0; i < 8'000'000; ++i) x = x * 1.0000001 + 1e-9 / x;
  asm volatile("" : : "g"(&x) : "memory");  // keeps the loop
  return seconds_since(t0);
}

/// The yardstick's time on an undisturbed core of the 4-core reference box
/// (Xeon, 2.0 GHz): wall times are scaled to this host speed.
constexpr double kNominalYardstickS = 0.050;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Flat ordered JSON object.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    return raw(k, std::isfinite(v) ? obs::json_number(v) : "null");
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    q += obs::json_escape(v);
    q += '"';
    return raw(k, q);
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& raw(const std::string& k, const std::string& v) {
    members_.emplace_back(k, v);
    return *this;
  }
  [[nodiscard]] std::string text() const {
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += obs::json_escape(members_[i].first);
      out += "\": ";
      out += members_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += obs::json_escape(v[i]);
    out += '"';
  }
  return out + "]";
}

/// Metric map: name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    Json m;
    m.num("value", value).str("unit", unit);
    json_.raw(name, m.text());
  }
  [[nodiscard]] std::string text() const { return json_.text(); }

 private:
  Json json_;
};

// ------------------------------------------------------- profiling inputs

/// The profiling grid every figure bench uses (bench/bench_common.hpp),
/// single-threaded.
exp::ProfilingConfig profiling_grid(unsigned threads) {
  exp::ProfilingConfig cfg;
  cfg.pressure_grid = {0.02, 0.2, 0.4, 0.6, 0.8, 0.92};
  cfg.load_fractions = {0.05, 0.25, 0.5, 0.75, 1.0};
  cfg.cell_duration_s = 60.0;
  cfg.warmup_s = 10.0;
  cfg.solo_probe_qps = 2.0;
  cfg.threads = threads;
  return cfg;
}

/// profile_sweep's grid: the same pressure × load cells, shortened so one
/// sweep takes about 2 s and a run holds enough sweeps for a steady
/// minimum (the cache keeps the full-length grid).
exp::ProfilingConfig sweep_grid() {
  auto cfg = profiling_grid(1);
  cfg.cell_duration_s = 10.0;
  cfg.warmup_s = 2.5;
  return cfg;
}

/// The cached artifacts stand for an offline staging profile: they are
/// profiled once under the default cluster seed, whatever the workload
/// seed. The cache directory is private to one driver binary, so the tag
/// only has to tell the files apart.
std::string cache_tag(const std::string& what) {
  const auto grid = profiling_grid(1);
  std::ostringstream os;
  os << "perfbench grid:" << grid.pressure_grid.size() << 'x'
     << grid.load_fractions.size() << '/' << grid.cell_duration_s << ' '
     << what;
  return os.str();
}

std::string meters_path(const std::string& dir) { return dir + "/meters.txt"; }
std::string service_path(const std::string& dir, const std::string& name) {
  return dir + "/service_" + name + ".txt";
}

int fill_cache(const std::string& dir, unsigned threads) {
  const auto cluster = exp::default_cluster();
  const auto grid = profiling_grid(threads);
  const auto t0 = Clock::now();
  auto cal = exp::load_calibration(meters_path(dir), cache_tag("meters"));
  if (!cal) {
    cal = exp::profile_meters(cluster, grid);
    exp::save_calibration(meters_path(dir), cache_tag("meters"), *cal);
  }
  int profiled = 0;
  for (const auto& p : workload::functionbench_suite()) {
    const auto path = service_path(dir, p.name);
    if (exp::load_artifacts(path, cache_tag(p.name))) continue;
    exp::save_artifacts(path, cache_tag(p.name),
                        exp::profile_service(p, cluster, *cal, grid));
    ++profiled;
  }
  Json j;
  j.str("mode", "fill-cache").num("services_profiled", profiled)
      .num("fill_s", seconds_since(t0));
  std::cout << j.text() << std::endl;
  return 0;
}

// --------------------------------------------------------------- workloads

enum class Workload { kClusterDay, kCallgraphDay, kProfileSweep };

std::optional<Workload> parse_workload(const std::string& s) {
  if (s == "cluster_day") return Workload::kClusterDay;
  if (s == "callgraph_day") return Workload::kCallgraphDay;
  if (s == "profile_sweep") return Workload::kProfileSweep;
  return std::nullopt;
}

constexpr int kClusterTenants = 12;
constexpr double kClusterPeakFraction = 0.5;
constexpr double kDayPeriodS = 1800.0;  // fig17/fig18's compressed day
constexpr double kRootPeakQps = 12.0;   // fig18's diamond

/// Everything a timed run needs, built from the warm cache.
struct Inputs {
  Workload workload = Workload::kClusterDay;
  exp::ClusterConfig cluster;  ///< the run overrides the seed
  core::MeterCalibration calibration;
  std::vector<exp::ClusterServiceSpec> specs;  ///< cluster_day
  std::optional<workload::CallGraph> graph;    ///< callgraph_day
  std::vector<core::ServiceArtifacts> stage_artifacts;
  double e2e_target_s = 0.0;
  workload::FunctionProfile profiled;  ///< profile_sweep
  double artifact_load_s = 0.0;        ///< cache reads alone
};

core::ServiceArtifacts load_service(const std::string& dir,
                                    const workload::FunctionProfile& p) {
  auto art = exp::load_artifacts(service_path(dir, p.name), cache_tag(p.name));
  if (!art) {
    std::cerr << "perfbench: profile cache miss for " << p.name << " in "
              << dir << " (run fill-cache first)\n";
    std::exit(2);
  }
  return std::move(*art);
}

Inputs load_inputs(Workload w, const std::string& dir) {
  Inputs in;
  in.workload = w;
  in.cluster = exp::default_cluster();

  const auto t0 = Clock::now();
  auto cal = exp::load_calibration(meters_path(dir), cache_tag("meters"));
  if (!cal) {
    std::cerr << "perfbench: meter calibration missing in " << dir << "\n";
    std::exit(2);
  }
  in.calibration = std::move(*cal);
  std::map<std::string, core::ServiceArtifacts> base;
  const auto suite = workload::functionbench_suite();
  if (w == Workload::kClusterDay) {
    for (const auto& p : suite) base.emplace(p.name, load_service(dir, p));
  } else if (w == Workload::kCallgraphDay) {
    for (const auto& p : {workload::make_float(), workload::make_matmul()}) {
      base.emplace(p.name, load_service(dir, p));
    }
  }
  in.artifact_load_s = seconds_since(t0);

  switch (w) {
    case Workload::kClusterDay: {
      const auto tenants =
          exp::cluster_tenants(kClusterTenants, kClusterPeakFraction);
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        in.specs.push_back(exp::ClusterServiceSpec{
            tenants[i], base.at(suite[i % suite.size()].name),
            static_cast<double>(i) / kClusterTenants});
      }
      break;
    }
    case Workload::kCallgraphDay: {
      const auto fl = workload::make_float();
      const auto mm = workload::make_matmul();
      const double frac = kRootPeakQps / mm.peak_load_qps;
      workload::CallGraph::Builder b;
      const int front = b.add_stage("front", workload::as_tenant(fl, 0, frac));
      const int search =
          b.add_stage("search", workload::as_tenant(mm, 1, frac));
      const int ads = b.add_stage("ads", workload::as_tenant(fl, 2, frac));
      const int render =
          b.add_stage("render", workload::as_tenant(fl, 3, frac));
      b.add_edge(front, search);
      b.add_edge(front, ads);
      b.add_edge(search, render);
      b.add_edge(ads, render);
      in.graph = b.build();
      for (int k = 0; k < in.graph->size(); ++k) {
        const bool heavy =
            in.graph->stage(k).profile.name.rfind(mm.name, 0) == 0;
        in.stage_artifacts.push_back(base.at(heavy ? mm.name : fl.name));
      }
      in.e2e_target_s =
          0.85 * (fl.qos_target_s + mm.qos_target_s + fl.qos_target_s);
      break;
    }
    case Workload::kProfileSweep:
      in.profiled = workload::make_float();
      break;
  }
  return in;
}

/// What one workload execution produced.
struct Outcome {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;         ///< 0 where the engines are private
  double queries = 0.0;             ///< simulated queries completed/offered
  double core_hours = 0.0;
  double memory_gb_hours = 0.0;
  /// QoS judgement: `over` of `judged` samples missed their target.
  double over = 0.0;
  double judged = 0.0;
  double p95_over_target = 0.0;
  /// Simulated values that must repeat bit for bit under one seed.
  std::vector<double> fingerprint;
  std::vector<std::string> errors;  ///< failed output checks
  // Deterministic counters and probe sizes.
  int peak_pool_containers = 0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t prewarm_denied = 0;
  std::uint64_t switches = 0;
  std::uint64_t switch_aborts = 0;
  perfbench::ProbeSizes probe_sizes;
};

struct Hooks {
  obs::Observer* observer = nullptr;
  obs::Profiler* profiler = nullptr;
};

core::WeightEstimatorConfig controller_estimator(double qos_target_s) {
  auto cfg = exp::default_amoeba_config(exp::DeploySystem::kAmoeba, -1.0)
                 .estimator;
  if (cfg.feature_cap_s <= 0.0) cfg.feature_cap_s = 4.0 * qos_target_s;
  return cfg;
}

Outcome run_cluster_day(const Inputs& in, const exp::ClusterConfig& cluster,
                        double days, const Hooks& hooks) {
  exp::ClusterRunOptions opt;
  opt.period_s = kDayPeriodS;
  opt.duration_days = days;
  opt.warmup_s = 60.0;
  opt.seed = cluster.seed;
  opt.observer = hooks.observer;
  opt.profiler = hooks.profiler;
  const auto r = exp::run_cluster(in.specs, cluster, in.calibration, opt);

  Outcome o;
  o.trace_hash = r.trace_hash;
  o.events = r.events_executed;
  o.core_hours = r.total_core_hours();
  o.memory_gb_hours = r.total_memory_gb_hours();
  std::size_t widest = 0;
  for (std::size_t i = 0; i < r.services.size(); ++i) {
    const auto& s = r.services[i];
    const auto n = static_cast<double>(s.latencies.size());
    o.judged += n;
    o.over += s.violation_fraction() * n;
    o.queries += static_cast<double>(s.queries);
    o.p95_over_target = std::max(o.p95_over_target, s.p95() / s.qos_target_s);
    o.switches += s.switches.size();
    o.switch_aborts += s.switch_aborts;
    if (s.n_max_granted > r.services[widest].n_max_granted) widest = i;
    for (double v : {s.p95(), s.violation_fraction(),
                     static_cast<double>(s.queries), s.usage.cpu_core_seconds,
                     s.usage.memory_mb_seconds,
                     static_cast<double>(s.switches.size())}) {
      o.fingerprint.push_back(v);
    }
  }
  o.peak_pool_containers = r.peak_pool_containers;
  o.pool_evictions = r.pool_evictions;
  o.prewarm_denied = r.prewarm_denied_total;
  o.fingerprint.insert(o.fingerprint.end(),
                       {o.core_hours, o.memory_gb_hours, r.pool_memory_mb_seconds,
                        static_cast<double>(r.events_executed)});

  const auto& svc = r.services[widest];
  o.probe_sizes.n_max = svc.n_max_granted;
  o.probe_sizes.streams = std::max(1, r.peak_pool_containers);
  o.probe_sizes.solo_latency_s = in.specs[widest].artifacts.solo_latency_s;
  o.probe_sizes.qos_target_s = svc.qos_target_s;
  o.probe_sizes.estimator = controller_estimator(svc.qos_target_s);

  // Output checks.
  if (o.queries <= 0.0) o.errors.push_back("cluster_day: no queries completed");
  const double pool_cap = cluster.serverless.pool_memory_mb * r.duration_s;
  if (!(r.pool_memory_mb_seconds <= pool_cap)) {
    o.errors.push_back("cluster_day: pool memory integral " +
                       std::to_string(r.pool_memory_mb_seconds) +
                       " MB*s exceeds capacity x duration " +
                       std::to_string(pool_cap));
  }
  double nameko_core_hours = 0.0;
  for (const auto& s : in.specs) {
    nameko_core_hours +=
        exp::just_enough_vm(s.profile, cluster).cores * r.duration_s / 3600.0;
  }
  if (!(o.core_hours < nameko_core_hours)) {
    o.errors.push_back("cluster_day: " + std::to_string(o.core_hours) +
                       " core-h not below all-Nameko " +
                       std::to_string(nameko_core_hours));
  }
  return o;
}

Outcome run_callgraph_day(const Inputs& in, const exp::ClusterConfig& cluster,
                          double days, const Hooks& hooks) {
  exp::CallGraphRunOptions opt;
  opt.period_s = kDayPeriodS;
  opt.duration_days = days;
  opt.warmup_s = 60.0;
  opt.e2e_qos_target_s = in.e2e_target_s;
  opt.budget_mode = exp::BudgetMode::kEndToEndAware;
  opt.root_peak_qps = kRootPeakQps;
  opt.seed = cluster.seed;
  opt.observer = hooks.observer;
  opt.profiler = hooks.profiler;
  const auto r = exp::run_callgraph(*in.graph, in.stage_artifacts, cluster,
                                    in.calibration, opt);

  Outcome o;
  o.trace_hash = r.trace_hash;
  o.events = r.events_executed;
  o.queries = static_cast<double>(r.queries_completed);
  o.core_hours = r.total_core_hours();
  o.memory_gb_hours = r.total_memory_gb_hours();
  o.judged = static_cast<double>(r.e2e_latencies.size());
  o.over = r.e2e_violation_fraction() * o.judged;
  o.p95_over_target = r.e2e_p95() / r.e2e_qos_target_s;
  std::size_t widest = 0;
  for (std::size_t k = 0; k < r.stages.size(); ++k) {
    const auto& s = r.stages[k];
    o.switches += s.switches;
    o.switch_aborts += s.switch_aborts;
    if (s.n_max_granted > r.stages[widest].n_max_granted) widest = k;
    for (double v : {s.p95(), s.final_budget_s, s.usage.cpu_core_seconds,
                     s.usage.memory_mb_seconds,
                     static_cast<double>(s.switches)}) {
      o.fingerprint.push_back(v);
    }
  }
  o.peak_pool_containers = r.peak_pool_containers;
  o.pool_evictions = r.pool_evictions;
  o.prewarm_denied = r.prewarm_denied_total;
  o.fingerprint.insert(
      o.fingerprint.end(),
      {o.core_hours, o.memory_gb_hours, o.over, r.e2e_p95(),
       static_cast<double>(r.root_injected), o.queries,
       static_cast<double>(r.events_executed)});

  const auto& st = r.stages[widest];
  o.probe_sizes.n_max = st.n_max_granted;
  o.probe_sizes.streams = std::max(1, r.peak_pool_containers);
  o.probe_sizes.solo_latency_s =
      in.stage_artifacts[static_cast<std::size_t>(st.stage)].solo_latency_s;
  o.probe_sizes.qos_target_s = st.final_budget_s;
  o.probe_sizes.estimator = controller_estimator(st.final_budget_s);

  if (r.queries_completed == 0) {
    o.errors.push_back("callgraph_day: no queries completed");
  }
  if (r.root_injected != r.queries_completed + r.queries_unfinished) {
    o.errors.push_back(
        "callgraph_day: conservation ledger broken: injected " +
        std::to_string(r.root_injected) + " != completed " +
        std::to_string(r.queries_completed) + " + unfinished " +
        std::to_string(r.queries_unfinished));
  }
  return o;
}

/// Poisson-mean query count the profiling sweep offers its simulated node:
/// profile_service returns no count, so this is computed from the grid
/// with the same load rules profile_service applies.
double sweep_offered_queries(const workload::FunctionProfile& p,
                             const exp::ClusterConfig& cluster,
                             const exp::ProfilingConfig& grid) {
  const double cell = grid.cell_duration_s;
  double q = grid.solo_probe_qps * cell;  // L0 cell
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto kind = d == core::kCpuDim  ? workload::StressKind::kCpu
                      : d == core::kIoDim ? workload::StressKind::kDiskIo
                                          : workload::StressKind::kNetwork;
    for (double pressure : grid.pressure_grid) {
      const double stress =
          exp::stressor_load_for_pressure(kind, pressure, cluster);
      for (double f : grid.load_fractions) {
        q += (f * p.peak_load_qps + stress) * cell;
      }
    }
  }
  // Footprint probes: three meters for 2 cells, idle and with the service
  // resident at half peak.
  const double probe = 2.0 * cell;
  q += 2.0 * 3.0 * workload::kMeterProbeQps * probe +
       0.5 * p.peak_load_qps * probe;
  return q;
}

Outcome run_profile_sweep(const Inputs& in, const exp::ClusterConfig& cluster,
                          const Hooks& hooks) {
  const auto grid = sweep_grid();
  core::ServiceArtifacts art;
  {
    // profile_service takes no profiler: attach it to this thread so the
    // platform's scopes (fair-share, pools) record. The cells' private
    // engines are not hooked, so engine time stays unattributed.
    obs::ProfilerAttach attach(hooks.profiler);
    art = exp::profile_service(in.profiled, cluster, in.calibration, grid);
  }

  Outcome o;
  const auto& p = in.profiled;
  // Simulated node time: the L0 cell, every surface cell, and two
  // footprint probes of two cells each.
  const auto cells = static_cast<double>(
      1 + core::kNumResources * grid.pressure_grid.size() *
              grid.load_fractions.size());
  const double node_s = (cells + 4.0) * grid.cell_duration_s;
  o.queries = sweep_offered_queries(p, cluster, grid);
  o.core_hours = cluster.serverless.cores * node_s / 3600.0;
  o.memory_gb_hours =
      cluster.serverless.pool_memory_mb * node_s / (1024.0 * 3600.0);

  // Surface cells over the service's target; the largest unsaturated cell
  // relative to the target.
  o.fingerprint = {art.solo_latency_s, art.alpha_s};
  for (const auto& s : art.surfaces) {
    if (!s) continue;
    for (std::size_t pi = 0; pi < s->pressures().size(); ++pi) {
      for (std::size_t li = 0; li < s->loads().size(); ++li) {
        const double v = s->value(pi, li);
        o.fingerprint.push_back(v);
        o.judged += 1.0;
        if (v > p.qos_target_s) o.over += 1.0;
        if (v < grid.cell_duration_s) {
          o.p95_over_target = std::max(o.p95_over_target, v / p.qos_target_s);
        }
      }
    }
  }
  for (double v : art.pressure_per_qps) o.fingerprint.push_back(v);
  // The trace hash of a sweep is a hash of its artifacts' bits.
  std::uint64_t h = 1469598103934665603ULL;
  for (double v : o.fingerprint) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ULL;
  }
  o.trace_hash = h;

  // The solo grant run_cluster would ask for: the just-enough VM's cores.
  o.probe_sizes.n_max =
      static_cast<int>(std::ceil(exp::just_enough_vm(p, cluster).cores));
  o.probe_sizes.streams = static_cast<int>(
      cluster.serverless.pool_memory_mb / p.memory_mb);
  o.probe_sizes.solo_latency_s = art.solo_latency_s;
  o.probe_sizes.qos_target_s = p.qos_target_s;
  o.probe_sizes.estimator = controller_estimator(p.qos_target_s);

  if (!art.complete()) {
    o.errors.push_back("profile_sweep: artifacts incomplete");
  }
  return o;
}

/// One execution of the workload under `seed` (passed through to
/// ClusterConfig::seed and the run options); `days` scales the two day
/// workloads.
Outcome run_workload(const Inputs& in, std::uint64_t seed, double days,
                     const Hooks& hooks) {
  exp::ClusterConfig cluster = in.cluster;
  cluster.seed = seed;
  Outcome o;
  switch (in.workload) {
    case Workload::kClusterDay:
      o = run_cluster_day(in, cluster, days, hooks);
      break;
    case Workload::kCallgraphDay:
      o = run_callgraph_day(in, cluster, days, hooks);
      break;
    case Workload::kProfileSweep:
      o = run_profile_sweep(in, cluster, hooks);
      break;
  }
  o.probe_sizes.cores = cluster.serverless.cores;
  o.probe_sizes.cpu_interference = cluster.serverless.cpu_interference;
  return o;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Output checks of `again`, plus that it repeats `first` (same seed) bit
/// for bit: the trace hash and every simulated value.
std::vector<std::string> check_repeat(const Outcome& first,
                                      const Outcome& again,
                                      const std::string& what) {
  std::vector<std::string> errors = again.errors;
  if (again.trace_hash != first.trace_hash) {
    errors.push_back(what + ": trace hash " + hex(again.trace_hash) +
                     " differs from " + hex(first.trace_hash));
  }
  if (!same_bits(again.fingerprint, first.fingerprint)) {
    errors.push_back(what + ": simulated metrics differ under one seed");
  }
  return errors;
}

/// Each workload seed expands into this many execution seeds (seed,
/// seed + kSeedStride, ...): the simulated metrics pool several days, so
/// they vary less from one workload seed to the next.
std::size_t executions_per_run(Workload w) {
  switch (w) {
    case Workload::kClusterDay: return 3;
    case Workload::kCallgraphDay: return 8;
    case Workload::kProfileSweep: return 4;
  }
  return 1;
}
constexpr std::uint64_t kSeedStride = 7919;

// ------------------------------------------------------------------ modes

struct Args {
  std::string mode;
  std::string workload;
  std::string cache;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  double days = 1.0;
  int trace = 0;
  unsigned threads = 1;
};

/// Set-ups timed per batch. One batch runs before the executions and one
/// after each of them, so the samples span the whole run, not the few
/// milliseconds at its start.
constexpr int kSetupBatch = 11;

Json provenance(const Args& a, double rss_baseline_mb) {
  Json j;
  j.str("mode", a.mode)
      .str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .num("rss_baseline_mb", rss_baseline_mb);
  return j;
}

/// Time `kSetupBatch` warm-cache set-ups; returns the last one's inputs.
Inputs timed_setups(Workload w, const Args& a, std::vector<double>& setup_s,
                    std::vector<double>& load_s) {
  Inputs in;
  for (int i = 0; i < kSetupBatch; ++i) {
    const auto t0 = Clock::now();
    in = load_inputs(w, a.cache);
    setup_s.push_back(seconds_since(t0));
    load_s.push_back(in.artifact_load_s);
  }
  return in;
}

std::string json_numbers(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_number(v[i]);
  }
  return out + "]";
}

int run_untraced(Workload w, const Args& a) {
  const double rss_baseline = proc_status_mb("VmRSS");
  std::vector<double> setup_s, load_s;
  const Inputs in = timed_setups(w, a, setup_s, load_s);
  const double rss_setup = proc_status_mb("VmRSS");

  // Run every execution seed once, then cycle through them again until the
  // measuring time is spent (at least one repeat: the determinism check).
  const std::size_t k = executions_per_run(w);
  std::vector<Outcome> firsts;
  std::vector<double> walls, yardstick;
  std::vector<std::string> errors;
  std::size_t failed = 0;
  double rss_peak = 0.0;
  const auto t_all = Clock::now();
  for (std::size_t i = 0; i <= k || seconds_since(t_all) < a.seconds; ++i) {
    const std::size_t sub = i % k;
    yardstick.push_back(yardstick_s());
    const auto t0 = Clock::now();
    Outcome o = run_workload(in, a.seed + kSeedStride * sub, 1.0, {});
    walls.push_back(seconds_since(t0));
    auto errs = i < k ? o.errors : check_repeat(firsts[sub], o, a.workload);
    if (!errs.empty()) ++failed;
    errors.insert(errors.end(), errs.begin(), errs.end());
    if (i < k) firsts.push_back(std::move(o));
    // Peak RSS over the fixed set of executions: the repeats after it
    // depend on host speed and would let heap growth leak in.
    if (i + 1 == k) rss_peak = peak_rss_mb();
    (void)timed_setups(w, a, setup_s, load_s);
  }

  double queries = 0.0, core_hours = 0.0, memory_gb_hours = 0.0, over = 0.0,
         judged = 0.0, p95_over_target = 0.0;
  for (const auto& o : firsts) {
    queries += o.queries;
    core_hours += o.core_hours;
    memory_gb_hours += o.memory_gb_hours;
    over += o.over;
    judged += o.judged;
    p95_over_target += o.p95_over_target;
  }
  // Times are the fastest sample, as timeit reports them: on a shared host
  // interference only ever adds time, and the minimum varies far less from
  // run to run than the median does. The execution time is then scaled by
  // the yardstick's fastest time, which removes most of the host's slow
  // drifts (it roughly halves the run-to-run spread on the reference box).
  const auto per = static_cast<double>(k);
  const double host_speed =
      kNominalYardstickS / *std::min_element(yardstick.begin(), yardstick.end());
  const double wall = *std::min_element(walls.begin(), walls.end()) * host_speed;
  Metrics m;
  m.add("wall_s", wall, "s");
  m.add("sim_queries_per_s", queries / per / wall, "1/s");
  m.add("peak_rss_mb", rss_peak, "MB");
  m.add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  m.add("core_hours", core_hours / per, "core-h");
  m.add("memory_gb_hours", memory_gb_hours / per, "GB-h");
  m.add("qos_violation_frac", judged > 0.0 ? over / judged : 0.0, "fraction");
  m.add("p95_over_target", p95_over_target / per, "ratio");

  std::vector<std::string> hashes;
  std::vector<double> events;
  for (const auto& o : firsts) {
    hashes.push_back(hex(o.trace_hash));
    events.push_back(static_cast<double>(o.events));
  }
  Json j = provenance(a, rss_baseline);
  j.num("rss_after_setup_mb", rss_setup)
      .num("rss_peak_mb", peak_rss_mb())
      .raw("trace_hashes", json_strings(hashes))
      .raw("events", json_numbers(events))
      .raw("wall_s_samples", json_numbers(walls))
      .raw("yardstick_s_samples", json_numbers(yardstick))
      .raw("setup_s_samples", json_numbers(setup_s))
      .boolean("correct", errors.empty())
      .raw("errors", json_strings(errors))
      .num("attempted", static_cast<double>(walls.size()))
      .num("failed", static_cast<double>(failed))
      .raw("metrics", m.text());
  std::cout << j.text() << std::endl;
  return errors.empty() ? 0 : 1;
}

/// Discriminant error: each tick's predicted p95 against the observed p95
/// of the same service's next tick.
std::pair<double, double> discriminant_error(const obs::AuditLog& log) {
  std::map<std::pair<std::string, int>, const obs::DecisionRecord*> last;
  std::vector<double> err;
  for (const auto& rec : log.records()) {
    const auto key = std::make_pair(rec.service, rec.stage);
    auto it = last.find(key);
    if (it != last.end() && it->second->predicted_p95_s &&
        rec.observed_p95_s && *rec.observed_p95_s > 0.0) {
      err.push_back(std::fabs(*it->second->predicted_p95_s -
                              *rec.observed_p95_s) /
                    *rec.observed_p95_s);
    }
    last[key] = &rec;
  }
  return {quantile(err, 0.5), quantile(err, 0.9)};
}

double counter_sum(const obs::MetricsSnapshot& snap, const std::string& name) {
  double sum = 0.0;
  for (const auto& [key, value] : snap.counters) {
    if (key.compare(0, name.size() + 1, name + "{") == 0) sum += value;
  }
  return sum;
}

int run_traced(Workload w, const Args& a) {
  const double rss_baseline = proc_status_mb("VmRSS");
  std::vector<double> setup_s, load_s;
  const Inputs in = timed_setups(w, a, setup_s, load_s);

  auto t0 = Clock::now();
  const Outcome plain = run_workload(in, a.seed, 1.0, {});
  const double plain_wall = seconds_since(t0);

  obs::ObsConfig oc;
  oc.trace = false;  // spans are not read here; the audit log and counters are
  obs::Observer observer(oc);
  obs::Profiler profiler;
  t0 = Clock::now();
  const Outcome traced = run_workload(in, a.seed, 1.0, {&observer, &profiler});
  const double traced_wall = seconds_since(t0);
  const auto report = profiler.report();

  auto errors = plain.errors;
  for (const auto& e : check_repeat(plain, traced, a.workload + " (traced)")) {
    errors.push_back(e);
  }

  auto self = [&](obs::ProfDomain d) {
    return report.self_s[static_cast<std::size_t>(d)];
  };
  auto calls = [&](obs::ProfDomain d) {
    return static_cast<double>(report.count[static_cast<std::size_t>(d)]);
  };
  using D = obs::ProfDomain;
  const bool private_engines = w == Workload::kProfileSweep;
  // The sweep's cell engines are not hooked: their dispatch time is what
  // the profiler could not attribute.
  const double engine_self =
      private_engines ? std::max(0.0, traced_wall - report.attributed_s())
                      : self(D::kEngine);
  const auto snap = observer.metrics().take_snapshot(0.0);
  const auto [err50, err90] = discriminant_error(observer.audit());
  const auto probes = perfbench::run_probes(traced.probe_sizes, a.seed);

  Metrics m;
  m.add("core.controller_self_s", self(D::kController), "s");
  m.add("core.controller_calls", calls(D::kController), "count");
  m.add("core.monitor_self_s", self(D::kMonitor), "s");
  m.add("core.pcr_refit_us", probes.pcr_refit_us, "us");
  m.add("core.max_arrival_rate_us", probes.max_arrival_rate_us, "us");
  m.add("linalg.fit_pcr_us", probes.fit_pcr_us, "us");
  m.add("sim.fair_share_self_s", self(D::kFairShare), "s");
  m.add("sim.fair_share_calls", calls(D::kFairShare), "count");
  m.add("sim.fair_share_open_close_ns", probes.fair_share_open_close_ns, "ns");
  m.add("sim.engine_self_s", engine_self, "s");
  m.add("sim.events", static_cast<double>(traced.events), "count");
  m.add("sim.events_per_query",
        traced.queries > 0.0 ? static_cast<double>(traced.events) / traced.queries
                             : 0.0,
        "count");
  m.add("sim.events_per_s", static_cast<double>(traced.events) / plain_wall,
        "1/s");
  m.add("sim.schedule_fire_ns", probes.schedule_fire_ns, "ns");
  m.add("serverless.pool_self_s", self(D::kServerlessPool), "s");
  m.add("serverless.cold_starts", counter_sum(snap, "cold_starts"), "count");
  m.add("serverless.peak_pool_containers",
        static_cast<double>(traced.peak_pool_containers), "count");
  m.add("serverless.pool_evictions", static_cast<double>(traced.pool_evictions),
        "count");
  m.add("serverless.prewarm_denied", static_cast<double>(traced.prewarm_denied),
        "count");
  m.add("iaas.pool_self_s", self(D::kIaasPool), "s");
  m.add("stats.self_s", self(D::kStats), "s");
  m.add("core.decisions", static_cast<double>(observer.audit().size()), "count");
  m.add("core.switches", static_cast<double>(traced.switches), "count");
  m.add("core.switch_aborts", static_cast<double>(traced.switch_aborts), "count");
  m.add("core.discriminant_rel_err_p50", err50, "fraction");
  m.add("core.discriminant_rel_err_p90", err90, "fraction");
  m.add("exp.artifact_load_s", *std::min_element(load_s.begin(), load_s.end()),
        "s");
  m.add("exp.harness_self_s", self(D::kHarness), "s");
  m.add("obs.profiler_overhead_pct", 100.0 * (traced_wall / plain_wall - 1.0),
        "%");

  Json j = provenance(a, rss_baseline);
  j.str("trace_hash", hex(plain.trace_hash))
      .str("traced_trace_hash", hex(traced.trace_hash))
      .num("untraced_wall_s", plain_wall)
      .num("traced_wall_s", traced_wall)
      .num("profiler_attributed_s", report.attributed_s())
      .num("probe_n_max", traced.probe_sizes.n_max)
      .num("probe_streams", traced.probe_sizes.streams)
      .num("probe_pcr_refits", static_cast<double>(probes.pcr_refits))
      .num("rss_peak_mb", peak_rss_mb())
      .boolean("correct", errors.empty())
      .raw("errors", json_strings(errors))
      .num("attempted", 2)
      .num("failed", errors.empty() ? 0 : 1)
      .raw("metrics", m.text());
  std::cout << j.text() << std::endl;
  return errors.empty() ? 0 : 1;
}

/// One run at `days` for the bytes-per-query regression.
int run_day(Workload w, const Args& a) {
  const Inputs in = load_inputs(w, a.cache);
  const Outcome o = run_workload(in, a.seed, a.days, {});
  Json j;
  j.str("mode", "day").num("days", a.days).num("queries", o.queries)
      .num("peak_rss_mb", peak_rss_mb())
      .boolean("correct", o.errors.empty())
      .raw("errors", json_strings(o.errors));
  std::cout << j.text() << std::endl;
  return o.errors.empty() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench_driver fill-cache --cache DIR [--threads N]\n"
               "       perfbench_driver run --workload W --seed S --seconds T"
               " --cache DIR --trace 0|1\n"
               "       perfbench_driver day --workload W --seed S --days F"
               " --cache DIR\n"
               "workloads: cluster_day callgraph_day profile_sweep\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--cache") a.cache = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--days") a.days = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--threads") a.threads = static_cast<unsigned>(std::atoi(v));
    else return usage();
  }
  if (a.cache.empty()) return usage();
  if (a.mode == "fill-cache") return fill_cache(a.cache, std::max(1u, a.threads));
  const auto w = parse_workload(a.workload);
  if (!w) return usage();
  if (a.mode == "run") return a.trace != 0 ? run_traced(*w, a) : run_untraced(*w, a);
  if (a.mode == "day") return run_day(*w, a);
  return usage();
}
