// Direct tests for exp/table round-tripping the cluster summary rows.
//
// test_sweep_table.cpp covers the Table primitive (alignment, width
// contract, CSV escaping, format helpers); this file pins the shape and
// content of the table the cluster runner emits — per-service rows plus a
// trailing TOTAL row — by parsing back its CSV form cell by cell.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/callgraph.hpp"
#include "exp/cluster.hpp"
#include "exp/table.hpp"
#include "obs/json.hpp"

namespace amoeba::exp {
namespace {

ClusterRunResult two_service_result() {
  ClusterRunResult r;
  r.duration_s = 3600.0;
  r.tenants_usage.cpu_core_seconds = 9000.0;
  r.tenants_usage.memory_mb_seconds = 2048.0 * 3600.0;
  r.meter_usage.cpu_core_seconds = 900.0;
  r.meter_usage.memory_mb_seconds = 1024.0 * 3600.0;

  ClusterServiceResult a;
  a.name = "float#0";
  a.qos_target_s = 0.15;
  a.latencies.add(0.1);
  a.latencies.add(0.2);  // one of two samples violates -> 50.0%
  a.queries = 2;
  a.switches.resize(3);
  a.n_max_asked = 10;
  a.n_max_granted = 7;
  a.usage.cpu_core_seconds = 7200.0;
  a.usage.memory_mb_seconds = 1024.0 * 3600.0;

  ClusterServiceResult b;
  b.name = "dd#1";
  b.qos_target_s = 0.5;
  b.latencies.add(0.25);
  b.queries = 1;
  b.n_max_asked = 3;
  b.n_max_granted = 3;
  b.usage.cpu_core_seconds = 1800.0;
  b.usage.memory_mb_seconds = 1024.0 * 3600.0;

  r.services = {a, b};
  return r;
}

std::vector<std::string> split_csv_line(const std::string& line) {
  // The cluster table emits no quoted cells (names are [a-z#0-9]), so a
  // plain comma split is exact here.
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

TEST(ClusterTable, HasOneRowPerServicePlusTotal) {
  const Table t = cluster_table(two_service_result());
  EXPECT_EQ(t.rows(), 3u);  // 2 services + TOTAL
  EXPECT_EQ(t.cols(), 9u);
}

TEST(ClusterTable, CsvRoundTripsServiceRows) {
  const ClusterRunResult r = two_service_result();
  std::ostringstream os;
  cluster_table(r).write_csv(os);

  std::istringstream is(os.str());
  std::vector<std::vector<std::string>> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(split_csv_line(line));
  ASSERT_EQ(lines.size(), 4u);  // header + 2 services + TOTAL

  const std::vector<std::string> header = {
      "service", "qos_s",    "queries", "p95_s",  "viol",
      "switches", "n_max",   "core_h",  "mem_GBh"};
  EXPECT_EQ(lines[0], header);

  // float#0: p95 of {0.1, 0.2} is 0.2 (with 0.2 > the 0.15 target, one of
  // two samples violates), 7200 core-seconds are 2 core-hours.
  const auto& a = lines[1];
  ASSERT_EQ(a.size(), header.size());
  EXPECT_EQ(a[0], "float#0");
  EXPECT_EQ(a[1], "0.150");
  EXPECT_EQ(a[2], "2");
  EXPECT_EQ(a[3], fmt_fixed(r.services[0].p95(), 3));
  EXPECT_EQ(a[4], "50.0%");
  EXPECT_EQ(a[5], "3");
  EXPECT_EQ(a[6], "7/10");
  EXPECT_EQ(a[7], "2.00");
  EXPECT_EQ(a[8], "1.00");

  const auto& b = lines[2];
  EXPECT_EQ(b[0], "dd#1");
  EXPECT_EQ(b[4], "0.0%");
  EXPECT_EQ(b[6], "3/3");

  // TOTAL row folds the meters in: (9000+900)/3600 core-hours and
  // (2048+1024) MB x 3600 s = 3 GB-hours.
  const auto& total = lines[3];
  EXPECT_EQ(total[0], "TOTAL(+meters)");
  EXPECT_EQ(total[1], "-");
  EXPECT_EQ(total[7], "2.75");
  EXPECT_EQ(total[8], "3.00");
}

TEST(ClusterTable, EmptyTenantListStillPrintsTheTotalRow) {
  // A degenerate run with zero services must keep the header + TOTAL shape
  // (meters still rent cores) rather than emit an empty table.
  ClusterRunResult r;
  r.duration_s = 3600.0;
  r.meter_usage.cpu_core_seconds = 1800.0;
  r.meter_usage.memory_mb_seconds = 512.0 * 3600.0;
  const Table t = cluster_table(r);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 9u);

  std::ostringstream os;
  t.write_csv(os);
  std::istringstream is(os.str());
  std::vector<std::vector<std::string>> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(split_csv_line(line));
  ASSERT_EQ(lines.size(), 2u);  // header + TOTAL
  EXPECT_EQ(lines[1][0], "TOTAL(+meters)");
  EXPECT_EQ(lines[1][7], "0.50");
  EXPECT_EQ(lines[1][8], "0.50");
}

TEST(ClusterTable, SingleTenantRowMatchesTheTotal) {
  ClusterRunResult r = two_service_result();
  r.services.resize(1);
  r.tenants_usage = r.services[0].usage;
  r.meter_usage = {};
  const Table t = cluster_table(r);
  EXPECT_EQ(t.rows(), 2u);  // the tenant + TOTAL

  std::ostringstream os;
  t.write_csv(os);
  std::istringstream is(os.str());
  std::vector<std::vector<std::string>> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(split_csv_line(line));
  ASSERT_EQ(lines.size(), 3u);
  // With no meters and one tenant, TOTAL equals the tenant's own columns.
  EXPECT_EQ(lines[2][7], lines[1][7]);
  EXPECT_EQ(lines[2][8], lines[1][8]);
}

CallGraphRunResult callgraph_result() {
  CallGraphRunResult r;
  r.budget_mode = BudgetMode::kEndToEndAware;
  r.e2e_qos_target_s = 0.8;
  r.duration_s = 1200.0;
  r.trace_hash = 0xabcdef;
  r.root_injected = 40;
  r.queries_completed = 39;
  r.queries_unfinished = 1;
  r.e2e_latencies.add(0.5);
  r.e2e_latencies.add(0.9);
  r.tenants_usage.cpu_core_seconds = 7200.0;

  CallGraphStageResult s;
  s.stage = 0;
  s.name = "float#0@s0";
  s.label = "front";
  s.pin = workload::StagePin::kManaged;
  s.initial_budget_s = 0.4;
  s.final_budget_s = 0.45;
  s.latencies.add(0.2);
  s.submitted = 40;
  s.finished = 39;
  s.switches = 2;
  s.usage.cpu_core_seconds = 7200.0;
  r.stages.push_back(s);
  return r;
}

TEST(CallGraphTable, CsvRowsAgreeWithTheParsedSummaryJson) {
  // The human table and the machine summary are two views of one result;
  // pin them cell-by-cell against each other through obs::parse_json.
  const CallGraphRunResult r = callgraph_result();
  const auto doc = obs::parse_json(callgraph_summary_json(r));
  ASSERT_TRUE(doc.has_value());
  const auto& stages = doc->at("stages");
  ASSERT_TRUE(stages.is_array());

  std::ostringstream os;
  callgraph_table(r).write_csv(os);
  std::istringstream is(os.str());
  std::vector<std::vector<std::string>> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(split_csv_line(line));
  ASSERT_EQ(lines.size(), stages.array.size() + 2u);  // header + stages + E2E

  for (std::size_t i = 0; i < stages.array.size(); ++i) {
    const obs::JsonValue& s = stages.array[i];
    const auto& row = lines[i + 1];
    ASSERT_EQ(row.size(), 9u);
    EXPECT_EQ(row[0], std::to_string(static_cast<int>(s.at("stage").number)) +
                          ":" + s.at("name").string);
    EXPECT_EQ(row[1], s.at("label").string);
    EXPECT_EQ(row[2], s.at("pin").string);
    EXPECT_EQ(row[3], fmt_fixed(s.at("initial_budget_s").number, 3));
    EXPECT_EQ(row[4], fmt_fixed(s.at("final_budget_s").number, 3));
    EXPECT_EQ(row[5],
              std::to_string(static_cast<long long>(s.at("finished").number)));
    EXPECT_EQ(row[6], fmt_fixed(s.at("p95_s").number, 3));
    EXPECT_EQ(row[7],
              std::to_string(static_cast<long long>(s.at("switches").number)));
  }

  // The trailing E2E row carries the run-level numbers from the same JSON.
  const auto& e2e = lines.back();
  EXPECT_EQ(e2e[0], "E2E");
  EXPECT_EQ(e2e[1], doc->at("budget_mode").string);
  EXPECT_EQ(e2e[3], fmt_fixed(doc->at("e2e_qos_target_s").number, 3));
  EXPECT_EQ(e2e[6], fmt_fixed(doc->at("e2e_p95_s").number, 3));
  EXPECT_EQ(e2e[8], fmt_fixed(doc->at("total_core_hours").number, 2));
}

TEST(ClusterTable, PrintedLinesShareOneWidth) {
  std::ostringstream os;
  cluster_table(two_service_result()).print(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
  EXPECT_GT(width, 0u);
}

}  // namespace
}  // namespace amoeba::exp
