// Cluster-scale multi-service runs — the paper's §VII-A regime at full
// breadth: N concurrently *managed* microservices on one shared node.
//
// `run_managed` (scenario.hpp) manages a single foreground service against
// scripted, unmanaged background noise. `run_cluster` closes the loop the
// paper actually describes: every tenant gets its own AmoebaRuntime (its
// own ContentionMonitor, DeploymentController and HybridExecutionEngine),
// all sharing ONE serverless platform, ONE IaaS platform and ONE event
// engine. Each service's discriminant input P is therefore *caused by the
// live co-tenants* — including the other monitors' probe traffic — through
// the shared FairShareResources, not by a scripted curve. My switch to
// serverless raises your measured pressure, which can flip your switch:
// exactly the coupling where naive per-service controllers oscillate.
//
// `run_cluster` wraps exp::run_node (node.hpp): each tenant is a one-stage
// component with its own phase-offset stream, its profile's name and its
// profile's qos_target_s as a fixed budget, which must clear the 1.25x
// feasibility floor (every FunctionBench tenant does).
//
// Shared-pool admission arbitration (exp::run_node): the node-wide
// container budget (the paper's n_max of 128 at 256 MB per container in a
// 32 GB pool) is split across services with core::split_container_budget —
// every service keeps at least one container, the rest goes proportionally
// to each service's solo ask. A small reserve is carved out for the three
// contention meters so probing can't be starved by tenant prewarms.
// Prewarms past a service's grant (or past pool memory) are denied and
// counted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/table.hpp"

namespace amoeba::exp {

/// One managed tenant of the cluster.
struct ClusterServiceSpec {
  workload::FunctionProfile profile;
  core::ServiceArtifacts artifacts;
  /// Diurnal phase offset in [0, 1): 0.5 puts this tenant's rush half a
  /// period after an unshifted one. Aligned phases (all equal) are the
  /// worst case for the contention loop.
  double phase = 0.0;
};

/// Settings of a cluster run: the shared-node knobs, nothing more.
struct ClusterRunOptions : CoTenantRunOptions {};

/// Per-tenant outcome of a cluster run.
struct ClusterServiceResult : TenantResult {
  double qos_target_s = 0.0;
  std::uint64_t queries = 0;
  std::vector<core::SwitchEvent> switches;

  [[nodiscard]] double violation_fraction() const {
    return latencies.fraction_above(qos_target_s);
  }
};

struct ClusterRunResult : NodeTotals {
  std::vector<ClusterServiceResult> services;

  [[nodiscard]] const ClusterServiceResult* find(
      const std::string& name) const {
    return find_tenant(services, name);
  }
};

/// Run N managed services concurrently on one shared node.
[[nodiscard]] ClusterRunResult run_cluster(
    const std::vector<ClusterServiceSpec>& specs,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const ClusterRunOptions& opt);

/// N tenant profiles cycling the FunctionBench suite (float, matmul,
/// linpack, dd, cloud_stor, float#5, ...), each renamed "<base>#<i>" and
/// scaled to `peak_fraction` of its solo peak so N tenants fit a node one
/// full-peak service saturates.
[[nodiscard]] std::vector<workload::FunctionProfile> cluster_tenants(
    int n, double peak_fraction);

/// Machine-readable summary (one JSON object; parses with obs::parse_json).
[[nodiscard]] std::string cluster_summary_json(const ClusterRunResult& r);

/// Human-readable per-service table with a trailing TOTAL row.
[[nodiscard]] Table cluster_table(const ClusterRunResult& r);

}  // namespace amoeba::exp
