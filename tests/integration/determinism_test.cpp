// Simulation determinism checker.
//
// Runs the full Amoeba control loop (profiling artifacts -> run_managed
// with monitor, discriminant, switches, prewarm) twice under the same seed
// and asserts the executed event traces hash identically — then once more
// under a different seed asserting the traces diverge. Future parallelism
// work (sharding, async hot paths) cannot silently introduce
// nondeterminism without tripping this test.
//
// Two trace fingerprints are compared:
//   * Engine::trace_hash() — order-sensitive hash over every executed
//     simulator event's (timestamp, event id);
//   * a query-stream hash over (entity id, event kind, timestamps) of every
//     recorded foreground query, plus every switch event.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "exp/callgraph.hpp"
#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "exp/scenario.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "workload/functionbench.hpp"

namespace amoeba::exp {
namespace {

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t w) {
  h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_double(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

/// Hash of the observable event stream: per-query (id, arrival,
/// completion, cold) plus per-switch (time, direction).
std::uint64_t stream_hash(const ManagedRunResult& r) {
  std::uint64_t h = 0xabcdef0123456789ULL;
  for (const auto& rec : r.records) {
    h = hash_mix(h, rec.id);
    h = hash_mix(h, hash_double(rec.arrival));
    h = hash_mix(h, hash_double(rec.completion));
    h = hash_mix(h, rec.cold ? 1 : 0);
  }
  for (const auto& sw : r.switches) {
    h = hash_mix(h, hash_double(sw.time));
    h = hash_mix(h, static_cast<std::uint64_t>(sw.to));
  }
  return h;
}

struct Artifacts {
  ClusterConfig cluster;
  core::MeterCalibration calibration;
  workload::FunctionProfile foreground;
  core::ServiceArtifacts artifacts;

  Artifacts() : cluster(default_cluster()) {
    ProfilingConfig cfg;
    cfg.pressure_grid = {0.05, 0.45, 0.85};
    cfg.load_fractions = {0.1, 0.5, 1.0};
    cfg.cell_duration_s = 10.0;
    cfg.warmup_s = 3.0;
    cfg.threads = 1;
    calibration = profile_meters(cluster, cfg);
    foreground = workload::make_float();
    artifacts = profile_service(foreground, cluster, calibration, cfg);
  }
};

const Artifacts& setup() {
  static Artifacts a;
  return a;
}

ManagedRunOptions options(std::uint64_t seed) {
  ManagedRunOptions opt;
  opt.period_s = 360.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.with_background = true;
  opt.background_peak_fraction = 0.25;
  opt.keep_records = true;
  opt.seed = seed;
  return opt;
}

TEST(Determinism, EngineTraceHashIsSeedStable) {
  // Minimal engine-level check: identical stochastic schedules produce
  // identical (timestamp, id) traces.
  auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    sim::Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      engine.schedule_in(rng.exponential(3.0), [] {});
    }
    engine.run();
    return engine.trace_hash();
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(Determinism, ControlLoopTraceIsIdenticalUnderSameSeed) {
  const auto& s = setup();
  const auto a = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, options(7));
  const auto b = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, options(7));
  ASSERT_GT(a.queries, 1000u);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.trace_hash, b.trace_hash) << "simulator event traces diverged";
  EXPECT_EQ(stream_hash(a), stream_hash(b)) << "query streams diverged";
  EXPECT_EQ(a.switches.size(), b.switches.size());
  EXPECT_DOUBLE_EQ(a.p95(), b.p95());
  EXPECT_DOUBLE_EQ(a.usage.cpu_core_seconds, b.usage.cpu_core_seconds);
}

TEST(Determinism, ObservabilityDoesNotPerturbTheSimulation) {
  // The observability layer is pure bookkeeping (no scheduled events, no
  // randomness), so a fully instrumented run must execute the exact same
  // simulator event trace as an uninstrumented run of the same seed.
  const auto& s = setup();
  const auto plain = run_managed(s.foreground, DeploySystem::kAmoeba,
                                 s.cluster, s.calibration, s.artifacts,
                                 options(7));
  obs::Observer observer{obs::ObsConfig{}};
  auto opt = options(7);
  opt.observer = &observer;
  const auto observed = run_managed(s.foreground, DeploySystem::kAmoeba,
                                    s.cluster, s.calibration, s.artifacts,
                                    opt);
  EXPECT_EQ(plain.trace_hash, observed.trace_hash)
      << "enabling observability changed the executed event trace";
  EXPECT_EQ(stream_hash(plain), stream_hash(observed));
  EXPECT_EQ(plain.queries, observed.queries);
  // ...and the observer did record the run it watched.
  EXPECT_FALSE(observer.audit().empty());
  for (const auto& rec : observer.audit().records()) {
    EXPECT_EQ(rec.stage, -1) << rec.service;
  }
  EXPECT_FALSE(observer.tracer().events().empty());
  EXPECT_FALSE(observer.metrics().snapshots().empty());
  EXPECT_EQ(observer.tracer().open_spans(), 0u);
}

TEST(Determinism, ProfilerDoesNotPerturbTheSimulation) {
  // The self-profiler reads the wall clock but never schedules events or
  // draws randomness, so attaching it must leave the executed event trace
  // and the observable query stream bit-identical — while still recording
  // a nonzero wall-time breakdown of the run it watched.
  const auto& s = setup();
  const auto plain = run_managed(s.foreground, DeploySystem::kAmoeba,
                                 s.cluster, s.calibration, s.artifacts,
                                 options(7));
  obs::Profiler profiler;
  auto opt = options(7);
  opt.profiler = &profiler;
  const auto profiled = run_managed(s.foreground, DeploySystem::kAmoeba,
                                    s.cluster, s.calibration, s.artifacts,
                                    opt);
  EXPECT_EQ(plain.trace_hash, profiled.trace_hash)
      << "attaching the profiler changed the executed event trace";
  EXPECT_EQ(stream_hash(plain), stream_hash(profiled));
  EXPECT_EQ(plain.queries, profiled.queries);
  const auto report = profiler.report();
  EXPECT_GT(report.attributed_s(), 0.0)
      << "profiler attached but recorded nothing";
  EXPECT_FALSE(report.buckets.empty());
  EXPECT_EQ(report.dropped_scopes, 0u);
}

TEST(Determinism, ProfilerDoesNotPerturbClusterRuns) {
  // Same invariant at cluster scale: the N=4 coupled control loops from
  // ClusterRunIsSeedStable must hash identically with a profiler attached.
  const auto& s = setup();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(s.foreground, i, 0.4), s.artifacts,
        static_cast<double>(i) / 4.0});
  }
  ClusterRunOptions opt;
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.seed = 42;
  const auto plain = run_cluster(specs, s.cluster, s.calibration, opt);
  obs::Profiler profiler;
  opt.profiler = &profiler;
  const auto profiled = run_cluster(specs, s.cluster, s.calibration, opt);
  EXPECT_EQ(plain.trace_hash, profiled.trace_hash)
      << "attaching the profiler changed the cluster event trace";
  ASSERT_EQ(plain.services.size(), profiled.services.size());
  for (std::size_t i = 0; i < plain.services.size(); ++i) {
    EXPECT_EQ(plain.services[i].queries, profiled.services[i].queries);
    EXPECT_EQ(hash_double(plain.services[i].p95()),
              hash_double(profiled.services[i].p95()));
  }
  EXPECT_GT(profiler.report().attributed_s(), 0.0);
}

TEST(Determinism, ObservabilityDoesNotPerturbClusterRuns) {
  // The N=4 cluster with an observer attached: same event trace, and every
  // decision is audited as a standalone service (no call-graph stage).
  const auto& s = setup();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(s.foreground, i, 0.4), s.artifacts,
        static_cast<double>(i) / 4.0});
  }
  ClusterRunOptions opt;
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.seed = 42;
  const auto plain = run_cluster(specs, s.cluster, s.calibration, opt);
  obs::Observer observer{obs::ObsConfig{}};
  opt.observer = &observer;
  const auto observed = run_cluster(specs, s.cluster, s.calibration, opt);
  EXPECT_EQ(plain.trace_hash, observed.trace_hash)
      << "observing a cluster run changed the executed event trace";
  ASSERT_EQ(plain.services.size(), observed.services.size());
  for (std::size_t i = 0; i < plain.services.size(); ++i) {
    EXPECT_EQ(plain.services[i].queries, observed.services[i].queries);
  }
  ASSERT_FALSE(observer.audit().empty());
  for (const auto& rec : observer.audit().records()) {
    EXPECT_EQ(rec.stage, -1) << rec.service;
    EXPECT_NE(find_tenant(observed.services, rec.service), nullptr)
        << rec.service;
  }
  EXPECT_EQ(observer.tracer().open_spans(), 0u);
}

TEST(Determinism, FaultInjectedRunsAreSeedStable) {
  // Fault injection draws from its own forked rng streams, so a faulty run
  // must be exactly as reproducible as a clean one: same seed + same fault
  // config => identical event trace, fault tallies and abort counts.
  const auto& s = setup();
  auto opt = options(7);
  opt.faults.container_boot_failure_p = 0.15;
  opt.faults.container_straggler_p = 0.10;
  opt.faults.vm_boot_failure_p = 0.10;
  opt.faults.meter_drop_p = 0.10;
  opt.faults.meter_outlier_p = 0.05;
  const auto a = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, opt);
  const auto b = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, opt);
  ASSERT_GT(a.queries, 1000u);
  ASSERT_GT(a.fault_counters.total(), 0u) << "no faults actually injected";
  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "fault-injected event traces diverged under the same seed";
  EXPECT_EQ(stream_hash(a), stream_hash(b));
  EXPECT_EQ(a.fault_counters.total(), b.fault_counters.total());
  EXPECT_EQ(a.switch_aborts, b.switch_aborts);
  EXPECT_EQ(a.switch_retries, b.switch_retries);
  // And the faults change behaviour relative to the clean run.
  const auto clean = run_managed(s.foreground, DeploySystem::kAmoeba,
                                 s.cluster, s.calibration, s.artifacts,
                                 options(7));
  EXPECT_NE(a.trace_hash, clean.trace_hash)
      << "nonzero fault rates left the event trace untouched";
}

TEST(Determinism, ClusterRunIsSeedStable) {
  // Golden-trace regression at cluster scale: an N=4 cluster of managed
  // tenants (phase-spread clones of the profiled service) must execute
  // the identical event trace and land the identical per-service latency
  // table under the same seed, and diverge under a different one. The N
  // coupled control loops share one engine and two platforms, so any
  // unordered container or rng-stream collision in the cluster path shows
  // up here first.
  const auto& s = setup();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(s.foreground, i, 0.4), s.artifacts,
        static_cast<double>(i) / 4.0});
  }
  ClusterRunOptions opt;
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.seed = 42;
  const auto a = run_cluster(specs, s.cluster, s.calibration, opt);
  const auto b = run_cluster(specs, s.cluster, s.calibration, opt);

  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "same-seed cluster event traces diverged";
  ASSERT_EQ(a.services.size(), 4u);
  ASSERT_EQ(b.services.size(), 4u);
  for (std::size_t i = 0; i < a.services.size(); ++i) {
    const auto& sa = a.services[i];
    const auto& sb = b.services[i];
    EXPECT_EQ(sa.name, sb.name);
    ASSERT_GT(sa.queries, 100u) << sa.name;
    EXPECT_EQ(sa.queries, sb.queries) << sa.name;
    EXPECT_EQ(hash_double(sa.p95()), hash_double(sb.p95())) << sa.name;
    EXPECT_EQ(hash_double(sa.violation_fraction()),
              hash_double(sb.violation_fraction()))
        << sa.name;
    EXPECT_EQ(sa.switches.size(), sb.switches.size()) << sa.name;
  }
  EXPECT_EQ(hash_double(a.total_core_hours()),
            hash_double(b.total_core_hours()));

  ClusterRunOptions reseeded = opt;
  reseeded.seed = 43;
  const auto c = run_cluster(specs, s.cluster, s.calibration, reseeded);
  EXPECT_NE(a.trace_hash, c.trace_hash)
      << "different seeds produced identical cluster traces";
}

/// Golden DAG for the call-graph determinism checks: a diamond of four
/// phase-identical tenants of the profiled service, one of them pinned.
workload::CallGraph golden_dag(const Artifacts& s) {
  workload::CallGraph::Builder b;
  const int front = b.add_stage("front", workload::as_tenant(s.foreground, 0, 0.4));
  const int left = b.add_stage("left", workload::as_tenant(s.foreground, 1, 0.4));
  const int right = b.add_stage("right", workload::as_tenant(s.foreground, 2, 0.4),
                                workload::StagePin::kIaasOnly);
  const int back = b.add_stage("back", workload::as_tenant(s.foreground, 3, 0.4));
  b.add_edge(front, left);
  b.add_edge(front, right);
  b.add_edge(left, back);
  b.add_edge(right, back);
  return b.build();
}

CallGraphRunOptions callgraph_options(const workload::CallGraph& g,
                                      std::uint64_t seed) {
  CallGraphRunOptions opt;
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  double sum = 0.0;
  for (int k = 0; k < g.size(); ++k) sum += g.stage(k).profile.qos_target_s;
  opt.e2e_qos_target_s = 1.2 * sum;
  opt.seed = seed;
  opt.node_container_budget = 48;
  opt.meter_reserve_containers = 6;
  return opt;
}

TEST(Determinism, CallGraphRunIsSeedStable) {
  // Golden-trace regression for DAG propagation + budget renormalization:
  // the four per-stage control loops, the AND-join query router and the
  // decomposer tick all share one engine, so a same-seed double run must
  // be bit-identical and a reseeded run must diverge.
  const auto& s = setup();
  const workload::CallGraph g = golden_dag(s);
  const std::vector<core::ServiceArtifacts> artifacts(
      static_cast<std::size_t>(g.size()), s.artifacts);
  const auto opt = callgraph_options(g, 42);
  const auto a = run_callgraph(g, artifacts, s.cluster, s.calibration, opt);
  const auto b = run_callgraph(g, artifacts, s.cluster, s.calibration, opt);

  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "same-seed call-graph event traces diverged";
  ASSERT_GT(a.queries_completed, 100u);
  EXPECT_EQ(a.root_injected, b.root_injected);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(hash_double(a.e2e_p95()), hash_double(b.e2e_p95()));
  EXPECT_EQ(hash_double(a.total_core_hours()),
            hash_double(b.total_core_hours()));
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t k = 0; k < a.stages.size(); ++k) {
    EXPECT_EQ(a.stages[k].finished, b.stages[k].finished)
        << a.stages[k].name;
    EXPECT_EQ(hash_double(a.stages[k].final_budget_s),
              hash_double(b.stages[k].final_budget_s))
        << a.stages[k].name;
  }

  auto reseeded = opt;
  reseeded.seed = 43;
  const auto c =
      run_callgraph(g, artifacts, s.cluster, s.calibration, reseeded);
  EXPECT_NE(a.trace_hash, c.trace_hash)
      << "different seeds produced identical call-graph traces";
}

TEST(Determinism, ObservabilityDoesNotPerturbCallGraphRuns) {
  // Observer (spans incl. the e2e async track, metrics, audit) and
  // profiler are pure bookkeeping for call-graph runs too; the audit log
  // must additionally carry the canonical stage index of every decision.
  const auto& s = setup();
  const workload::CallGraph g = golden_dag(s);
  const std::vector<core::ServiceArtifacts> artifacts(
      static_cast<std::size_t>(g.size()), s.artifacts);
  const auto opt = callgraph_options(g, 42);
  const auto plain =
      run_callgraph(g, artifacts, s.cluster, s.calibration, opt);

  obs::Observer observer{obs::ObsConfig{}};
  obs::Profiler profiler;
  auto instrumented = opt;
  instrumented.observer = &observer;
  instrumented.profiler = &profiler;
  const auto observed =
      run_callgraph(g, artifacts, s.cluster, s.calibration, instrumented);

  EXPECT_EQ(plain.trace_hash, observed.trace_hash)
      << "instrumenting a call-graph run changed the executed event trace";
  EXPECT_EQ(plain.root_injected, observed.root_injected);
  EXPECT_EQ(hash_double(plain.e2e_p95()), hash_double(observed.e2e_p95()));

  ASSERT_FALSE(observer.audit().empty());
  bool stage_seen = false;
  for (const auto& rec : observer.audit().records()) {
    EXPECT_GE(rec.stage, 0) << rec.service;
    EXPECT_LT(rec.stage, g.size()) << rec.service;
    EXPECT_EQ(rec.service, g.service_name(rec.stage));
    stage_seen = true;
  }
  EXPECT_TRUE(stage_seen);
  EXPECT_FALSE(observer.tracer().events().empty());
  EXPECT_EQ(observer.tracer().open_spans(), 0u);
  EXPECT_GT(profiler.report().attributed_s(), 0.0);
}

sim::FaultConfig test_faults() {
  sim::FaultConfig f;
  f.container_boot_failure_p = 0.15;
  f.container_straggler_p = 0.10;
  f.vm_boot_failure_p = 0.10;
  f.meter_drop_p = 0.10;
  f.meter_outlier_p = 0.05;
  return f;
}

TEST(Determinism, FaultInjectedClusterAndCallGraphRunsAreSeedStable) {
  // The co-tenant drivers hand one FaultInjector to the shared pool, the
  // VM fleet and every tenant's monitor; a faulty run must still repeat
  // bit for bit, and the call-graph ledger must still balance.
  const auto& s = setup();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(s.foreground, i, 0.4), s.artifacts,
        static_cast<double>(i) / 4.0});
  }
  ClusterRunOptions copt;
  copt.period_s = 240.0;
  copt.warmup_s = 40.0;
  const auto clean_cluster = run_cluster(specs, s.cluster, s.calibration, copt);
  copt.faults = test_faults();
  const auto ca = run_cluster(specs, s.cluster, s.calibration, copt);
  const auto cb = run_cluster(specs, s.cluster, s.calibration, copt);
  ASSERT_GT(ca.fault_counters.total(), 0u) << "no cluster faults injected";
  EXPECT_EQ(ca.trace_hash, cb.trace_hash);
  EXPECT_EQ(ca.fault_counters.total(), cb.fault_counters.total());
  EXPECT_EQ(hash_double(ca.total_core_hours()),
            hash_double(cb.total_core_hours()));
  ASSERT_EQ(ca.services.size(), cb.services.size());
  for (std::size_t i = 0; i < ca.services.size(); ++i) {
    EXPECT_EQ(ca.services[i].queries, cb.services[i].queries);
    EXPECT_EQ(hash_double(ca.services[i].p95()),
              hash_double(cb.services[i].p95()));
    EXPECT_EQ(ca.services[i].switch_aborts, cb.services[i].switch_aborts);
  }
  EXPECT_NE(ca.trace_hash, clean_cluster.trace_hash)
      << "nonzero fault rates left the cluster trace untouched";

  const workload::CallGraph g = golden_dag(s);
  const std::vector<core::ServiceArtifacts> artifacts(
      static_cast<std::size_t>(g.size()), s.artifacts);
  auto gopt = callgraph_options(g, 42);
  const auto clean_graph =
      run_callgraph(g, artifacts, s.cluster, s.calibration, gopt);
  gopt.faults = test_faults();
  const auto ga = run_callgraph(g, artifacts, s.cluster, s.calibration, gopt);
  const auto gb = run_callgraph(g, artifacts, s.cluster, s.calibration, gopt);
  ASSERT_GT(ga.fault_counters.total(), 0u) << "no call-graph faults injected";
  EXPECT_EQ(ga.trace_hash, gb.trace_hash);
  EXPECT_EQ(ga.fault_counters.total(), gb.fault_counters.total());
  EXPECT_EQ(ga.root_injected, gb.root_injected);
  EXPECT_EQ(hash_double(ga.e2e_p95()), hash_double(gb.e2e_p95()));
  EXPECT_NE(ga.trace_hash, clean_graph.trace_hash)
      << "nonzero fault rates left the call-graph trace untouched";
  ASSERT_GT(ga.queries_completed, 100u);
  EXPECT_EQ(ga.root_injected, ga.queries_completed + ga.queries_unfinished)
      << "call-graph conservation ledger broken under faults";
}

// --- Run-level anchors ------------------------------------------------
// The tests above compare same-seed pairs, which a refactor that reorders
// engine operations identically on both runs would still pass. These pin
// whole-run trace hashes and bit patterns of the headline numbers as
// literals, recorded before the run drivers were folded onto the shared
// node harness (exp/node.hpp). A change here means the simulation itself
// changed.

struct Anchor {
  std::uint64_t trace_hash;
  std::uint64_t p95_bits;
  std::uint64_t core_hours_bits;
};

void expect_managed_anchor(DeploySystem system, const ManagedRunOptions& opt,
                           const Anchor& want) {
  const auto& s = setup();
  const auto r = run_managed(s.foreground, system, s.cluster, s.calibration,
                             s.artifacts, opt);
  EXPECT_EQ(r.trace_hash, want.trace_hash) << to_string(system);
  EXPECT_EQ(hash_double(r.p95()), want.p95_bits) << to_string(system);
  EXPECT_EQ(hash_double(r.usage.cpu_core_seconds / 3600.0),
            want.core_hours_bits)
      << to_string(system);
}

TEST(Determinism, ManagedRunsMatchPinnedAnchors) {
  expect_managed_anchor(
      DeploySystem::kAmoeba, options(7),
      {0xfd0658efda96b2e9ULL, 0x3fc06eba71370e65ULL, 0x3feff7305bf0d795ULL});
  expect_managed_anchor(
      DeploySystem::kNameko, options(7),
      {0xddfedbcf3d24890cULL, 0x3fb7d90ed8bc9800ULL, 0x3ffaaaaaaaaaaaabULL});
  expect_managed_anchor(
      DeploySystem::kOpenWhisk, options(7),
      {0x4aa12ee29a29c867ULL, 0x3fbe4526dc7f3665ULL, 0x3fdbf4e06d3cda16ULL});
}

TEST(Determinism, FaultInjectedManagedRunMatchesPinnedAnchor) {
  // The FaultInjectedRunsAreSeedStable configuration.
  auto opt = options(7);
  opt.faults.container_boot_failure_p = 0.15;
  opt.faults.container_straggler_p = 0.10;
  opt.faults.vm_boot_failure_p = 0.10;
  opt.faults.meter_drop_p = 0.10;
  opt.faults.meter_outlier_p = 0.05;
  expect_managed_anchor(
      DeploySystem::kAmoeba, opt,
      {0x5b2bcc9bac2177b9ULL, 0x3fc0ac033ac9d199ULL, 0x3ff4609f2a25e66bULL});
}

TEST(Determinism, ClusterRunMatchesPinnedAnchor) {
  // The N=4 ClusterRunIsSeedStable cluster.
  const auto& s = setup();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(s.foreground, i, 0.4), s.artifacts,
        static_cast<double>(i) / 4.0});
  }
  ClusterRunOptions opt;
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.seed = 42;
  const auto r = run_cluster(specs, s.cluster, s.calibration, opt);
  EXPECT_EQ(r.trace_hash, 0x0feee3cff0c78701ULL);
  EXPECT_EQ(hash_double(r.total_core_hours()), 0x3ffc558116b39ba4ULL);
  const std::uint64_t p95_bits[] = {
      0x3fc1067dc7db2366ULL, 0x3fc326edc6733400ULL, 0x3fc12a064821a18cULL,
      0x3fc0b18778b4b731ULL};
  ASSERT_EQ(r.services.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hash_double(r.services[i].p95()), p95_bits[i])
        << r.services[i].name;
  }
}

TEST(Determinism, CallGraphRunMatchesPinnedAnchor) {
  const auto& s = setup();
  const workload::CallGraph g = golden_dag(s);
  const std::vector<core::ServiceArtifacts> artifacts(
      static_cast<std::size_t>(g.size()), s.artifacts);
  const auto r = run_callgraph(g, artifacts, s.cluster, s.calibration,
                               callgraph_options(g, 42));
  EXPECT_EQ(r.trace_hash, 0x1254abd56cceaf81ULL);
  EXPECT_EQ(hash_double(r.e2e_p95()), 0x3fd7258decd08400ULL);
  EXPECT_EQ(hash_double(r.total_core_hours()), 0x3ffe0ea197c0e5b8ULL);
}

TEST(Determinism, NaiveCallGraphRunMatchesPinnedAnchor) {
  // The golden DAG under fixed equal budgets: the renorm-free mode fig18's
  // naive run and every one-stage cluster component share.
  const auto& s = setup();
  const workload::CallGraph g = golden_dag(s);
  const std::vector<core::ServiceArtifacts> artifacts(
      static_cast<std::size_t>(g.size()), s.artifacts);
  auto opt = callgraph_options(g, 42);
  opt.budget_mode = BudgetMode::kNaiveEqual;
  const auto r = run_callgraph(g, artifacts, s.cluster, s.calibration, opt);
  EXPECT_EQ(r.trace_hash, 0x274d2e7c362c308cULL);
  EXPECT_EQ(hash_double(r.e2e_p95()), 0x3fd7246383f820cdULL);
  EXPECT_EQ(hash_double(r.total_core_hours()), 0x3ffe2d6f83710648ULL);
  const std::uint64_t p95_bits[] = {
      0x3fc1c968bafdb419ULL, 0x3fb7c8994ba98f33ULL, 0x3fbf99d40f5b7400ULL,
      0x3fbee352f55c44cdULL};
  ASSERT_EQ(r.stages.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(hash_double(r.stages[k].p95()), p95_bits[k])
        << r.stages[k].name;
  }
}

TEST(Determinism, FaultInjectedClusterAndCallGraphRunsMatchPinnedAnchors) {
  // The FaultInjectedClusterAndCallGraphRunsAreSeedStable configurations.
  const auto& s = setup();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(s.foreground, i, 0.4), s.artifacts,
        static_cast<double>(i) / 4.0});
  }
  ClusterRunOptions copt;
  copt.period_s = 240.0;
  copt.warmup_s = 40.0;
  copt.faults = test_faults();
  const auto c = run_cluster(specs, s.cluster, s.calibration, copt);
  EXPECT_EQ(c.trace_hash, 0xc4f340c4c73af34fULL);
  EXPECT_EQ(hash_double(c.total_core_hours()), 0x3ffcc0fd3c406e27ULL);
  EXPECT_EQ(c.fault_counters.total(), 533u);

  const workload::CallGraph g = golden_dag(s);
  const std::vector<core::ServiceArtifacts> artifacts(
      static_cast<std::size_t>(g.size()), s.artifacts);
  auto gopt = callgraph_options(g, 42);
  gopt.faults = test_faults();
  const auto r = run_callgraph(g, artifacts, s.cluster, s.calibration, gopt);
  EXPECT_EQ(r.trace_hash, 0xb6a6ea7c9f62ae5fULL);
  EXPECT_EQ(hash_double(r.total_core_hours()), 0x3ffe6ecb544447a8ULL);
  EXPECT_EQ(r.fault_counters.total(), 521u);
}

TEST(Determinism, ControlLoopTraceDivergesUnderDifferentSeed) {
  const auto& s = setup();
  const auto a = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, options(7));
  const auto c = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, options(8));
  ASSERT_GT(c.queries, 1000u);
  EXPECT_NE(a.trace_hash, c.trace_hash)
      << "different seeds produced identical event traces";
  EXPECT_NE(stream_hash(a), stream_hash(c));
}

}  // namespace
}  // namespace amoeba::exp
