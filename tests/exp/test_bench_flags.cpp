// The figure benches' shared `--json-out` flag (bench/bench_common.hpp).
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace amoeba::bench
