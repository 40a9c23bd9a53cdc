#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "exp/table.hpp"

namespace amoeba::exp {
namespace {

TEST(Sweep, EffectiveThreadsNeverZero) {
  EXPECT_GE(common::effective_threads(0), 1u);
  EXPECT_EQ(common::effective_threads(7), 7u);
}

// Each cell hashes its own seeded stream — a stand-in for "own Engine, own
// RNG". The table must be a pure function of the configuration list.
std::vector<std::uint64_t> executor_table(unsigned jobs) {
  SweepExecutor exec(jobs);
  const std::vector<std::uint64_t> configs = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3,
                                              5, 8, 9, 7, 9, 3, 2, 3, 8, 4};
  return exec.map<std::uint64_t>(configs, [](std::uint64_t seed) {
    std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 1000; ++i) h = h * 6364136223846793005ULL + seed;
    return h;
  });
}

TEST(SweepExecutor, IdenticalResultTablesAtJobs1AndJobs8) {
  const auto serial = executor_table(1);
  const auto parallel8 = executor_table(8);
  EXPECT_EQ(serial, parallel8);
}

TEST(SweepExecutor, MapIndexedCollectsInIndexOrder) {
  SweepExecutor exec(4);
  for (const std::size_t n : {std::size_t{100}, std::size_t{0}}) {
    const auto out = exec.map_indexed<std::size_t>(
        n, [](std::size_t i) { return i * 3 + 1; });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * 3 + 1);
  }
}

TEST(SweepExecutor, Jobs1RunsOnCallingThreadWithoutPool) {
  SweepExecutor exec(1);
  EXPECT_EQ(exec.jobs(), 1u);
  const auto caller = std::this_thread::get_id();
  const auto out = exec.map_indexed<bool>(
      8, [caller](std::size_t) { return std::this_thread::get_id() == caller; });
  for (const bool on_caller : out) EXPECT_TRUE(on_caller);
}

TEST(SweepExecutor, ExceptionRethrownAfterDrain) {
  SweepExecutor exec(4);
  EXPECT_THROW(exec.map_indexed<int>(32,
                                     [](std::size_t i) -> int {
                                       if (i == 13) throw std::runtime_error("x");
                                       return static_cast<int>(i);
                                     }),
               std::runtime_error);
}

char** make_argv(std::vector<std::string>& args, std::vector<char*>& ptrs) {
  ptrs.clear();
  for (auto& a : args) ptrs.push_back(a.data());
  ptrs.push_back(nullptr);
  return ptrs.data();
}

TEST(ParseJobsFlag, DefaultsToOneAndLeavesArgvAlone) {
  std::vector<std::string> args = {"bench", "--events", "100"};
  std::vector<char*> ptrs;
  char** argv = make_argv(args, ptrs);
  int argc = 3;
  EXPECT_EQ(parse_jobs_flag(argc, argv), 1u);
  EXPECT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--events");
}

TEST(ParseJobsFlag, ConsumesBothSpellingsAndRemovesThemFromArgv) {
  std::vector<std::string> args = {"bench", "--jobs", "4", "--foo"};
  std::vector<char*> ptrs;
  char** argv = make_argv(args, ptrs);
  int argc = 4;
  EXPECT_EQ(parse_jobs_flag(argc, argv), 4u);
  EXPECT_EQ(argc, 2);  // --jobs and its value consumed
  EXPECT_STREQ(argv[1], "--foo");
  EXPECT_EQ(argv[2], nullptr);

  std::vector<std::string> args2 = {"bench", "--jobs=8"};
  char** argv2 = make_argv(args2, ptrs);
  int argc2 = 2;
  EXPECT_EQ(parse_jobs_flag(argc2, argv2), 8u);
  EXPECT_EQ(argc2, 1);
}

TEST(ParseJobsFlag, RejectsNonNumericAndOutOfRange) {
  std::vector<char*> ptrs;
  for (const std::string bad :
       {"--jobs=zero", "--jobs=0", "--jobs=4096", "--jobs=", "--jobs"}) {
    std::vector<std::string> args = {"bench", bad};
    char** argv = make_argv(args, ptrs);
    int argc = 2;
    EXPECT_THROW((void)parse_jobs_flag(argc, argv), ContractError) << bad;
  }
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name      | value |"), std::string::npos);
  EXPECT_NE(s.find("| long-name | 22    |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"name", "note"});
  t.add_row({"x,y", "says \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\",\"says \"\"hi\"\"\""), std::string::npos);
}

TEST(Format, FixedPercentSi) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_percent(0.729, 1), "72.9%");
  EXPECT_EQ(fmt_si(2.5e9, 1), "2.5G");
  EXPECT_EQ(fmt_si(3.125e6, 2), "3.12M");  // round-half-to-even
  EXPECT_EQ(fmt_si(12.0, 0), "12");
}

}  // namespace
}  // namespace amoeba::exp
