#include "linalg/least_squares.hpp"

#include <gtest/gtest.h>

namespace amoeba::linalg {
namespace {

TEST(SolveSpd, Known2x2) {
  Matrix m = {{4.0, 1.0}, {1.0, 3.0}};
  const auto x = solve_spd(m, {1.0, 2.0});
  // Verify m x = rhs.
  EXPECT_NEAR(4.0 * x[0] + 1.0 * x[1], 1.0, 1e-12);
  EXPECT_NEAR(1.0 * x[0] + 3.0 * x[1], 2.0, 1e-12);
}

TEST(SolveSpd, RejectsIndefinite) {
  Matrix m = {{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_THROW((void)solve_spd(m, {1.0, 1.0}), ContractError);
}

TEST(SolveSpd, RejectsBadDimensions) {
  Matrix m(2, 3);
  EXPECT_THROW((void)solve_spd(m, {1.0, 2.0}), ContractError);
  Matrix sq(2, 2);
  EXPECT_THROW((void)solve_spd(sq, {1.0}), ContractError);
}

}  // namespace
}  // namespace amoeba::linalg
