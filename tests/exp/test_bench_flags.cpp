// The figure benches' shared helpers (bench/bench_common.hpp): the
// `--json-out` flag and the profile-cache tags.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"

namespace amoeba::bench {
namespace {

std::string json_out(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parse_json_out(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
}

TEST(BenchFlags, JsonOutTakesTheFollowingPath) {
  EXPECT_EQ(json_out({"--smoke", "--json-out", "s.json"}), "s.json");
  EXPECT_EQ(json_out({"--smoke"}), "");
  // A trailing flag has no path: rejected, not dropped.
  EXPECT_THROW((void)json_out({"--json-out"}), ContractError);
}

TEST(BenchFlags, JsonOutRejectsAFlagWhereThePathShouldBe) {
  try {
    (void)json_out({"--json-out", "--smoke"});
    ADD_FAILURE() << "--json-out took --smoke as its path";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--json-out expects a path, got "
                                         "--smoke"),
              std::string::npos)
        << e.what();
  }
}

/// One field to move and where it lives.
struct Knob {
  const char* name;
  std::function<void(exp::ClusterConfig&, exp::ProfilingConfig&,
                     workload::FunctionProfile&)>
      change;
};

double next_up(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

// A cached artifact is reused only under an equal tag, so every field that
// profiling reads must reach the tag, down to the last bit.
TEST(CacheTag, ChangingAnyProfiledFieldChangesTheTag) {
  using Cl = exp::ClusterConfig;
  using Pc = exp::ProfilingConfig;
  using Fp = workload::FunctionProfile;
  const std::vector<Knob> knobs = {
      {"cores", [](Cl& c, Pc&, Fp&) { c.serverless.cores += 1.0; }},
      {"pool_memory_mb",
       [](Cl& c, Pc&, Fp&) { c.serverless.pool_memory_mb *= 2.0; }},
      {"disk_bps", [](Cl& c, Pc&, Fp&) { c.serverless.disk_bps *= 2.0; }},
      {"net_bps", [](Cl& c, Pc&, Fp&) { c.serverless.net_bps *= 2.0; }},
      {"container_core_cap",
       [](Cl& c, Pc&, Fp&) { c.serverless.container_core_cap = 2.0; }},
      {"cpu_interference",
       [](Cl& c, Pc&, Fp&) { c.serverless.cpu_interference += 0.1; }},
      {"io_efficiency",
       [](Cl& c, Pc&, Fp&) { c.serverless.io_efficiency *= 0.5; }},
      {"net_efficiency",
       [](Cl& c, Pc&, Fp&) { c.serverless.net_efficiency *= 0.5; }},
      {"cold_start_mean_s",
       [](Cl& c, Pc&, Fp&) { c.serverless.cold_start_mean_s += 0.5; }},
      {"cold_start_cv",
       [](Cl& c, Pc&, Fp&) { c.serverless.cold_start_cv += 0.1; }},
      {"keep_alive_s",
       [](Cl& c, Pc&, Fp&) { c.serverless.keep_alive_s += 1.0; }},
      {"crash_after_completion_p",
       [](Cl& c, Pc&, Fp&) { c.serverless.crash_after_completion_p = 0.01; }},
      {"seed", [](Cl& c, Pc&, Fp&) { c.seed += 1; }},
      // Same grid sizes, different values.
      {"pressure_grid value",
       [](Cl&, Pc& p, Fp&) { p.pressure_grid[1] = next_up(p.pressure_grid[1]); }},
      {"load_fractions value",
       [](Cl&, Pc& p, Fp&) { p.load_fractions[0] += 0.01; }},
      {"cell_duration_s", [](Cl&, Pc& p, Fp&) { p.cell_duration_s += 1.0; }},
      {"warmup_s", [](Cl&, Pc& p, Fp&) { p.warmup_s += 1.0; }},
      {"tail", [](Cl&, Pc& p, Fp&) { p.tail = 0.99; }},
      {"solo_probe_qps", [](Cl&, Pc& p, Fp&) { p.solo_probe_qps += 1.0; }},
      {"name", [](Cl&, Pc&, Fp& f) { f.name += "x"; }},
      {"exec.cpu_seconds",
       [](Cl&, Pc&, Fp& f) { f.exec.cpu_seconds = next_up(f.exec.cpu_seconds); }},
      {"exec.io_bytes", [](Cl&, Pc&, Fp& f) { f.exec.io_bytes += 1.0; }},
      {"exec.net_bytes", [](Cl&, Pc&, Fp& f) { f.exec.net_bytes += 1.0; }},
      {"code_bytes", [](Cl&, Pc&, Fp& f) { f.code_bytes += 1.0; }},
      {"result_bytes", [](Cl&, Pc&, Fp& f) { f.result_bytes += 1.0; }},
      {"platform_overhead_s",
       [](Cl&, Pc&, Fp& f) { f.platform_overhead_s += 1e-3; }},
      {"rpc_overhead_s", [](Cl&, Pc&, Fp& f) { f.rpc_overhead_s += 1e-3; }},
      {"memory_mb", [](Cl&, Pc&, Fp& f) { f.memory_mb *= 2.0; }},
      {"cpu_cv", [](Cl&, Pc&, Fp& f) { f.cpu_cv += 0.05; }},
      {"qos_target_s", [](Cl&, Pc&, Fp& f) { f.qos_target_s *= 2.0; }},
      {"peak_load_qps", [](Cl&, Pc&, Fp& f) { f.peak_load_qps += 1.0; }},
  };
  const auto tag = [](const Cl& c, const Pc& p, const Fp& f) {
    return cache_tag(c, p, profile_tag(f));
  };
  const Cl cluster = bench_cluster();
  const Pc grid = bench_profiling();
  const Fp profile = workload::meter_profile(workload::kAllMeters[0]);
  const std::string base = tag(cluster, grid, profile);
  EXPECT_NE(base.find("physics:" + std::to_string(kPhysicsVersion)),
            std::string::npos);
  for (const Knob& k : knobs) {
    Cl c = cluster;
    Pc p = grid;
    Fp f = profile;
    k.change(c, p, f);
    EXPECT_NE(tag(c, p, f), base) << k.name;
  }
  // The sweep's thread count does not change what it computes.
  Pc threaded = grid;
  threaded.threads = 7;
  EXPECT_EQ(tag(cluster, threaded, profile), base);
}

}  // namespace
}  // namespace amoeba::bench
