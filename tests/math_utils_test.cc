#include "common/math_utils.h"

#include <cmath>

#include <gtest/gtest.h>

namespace memstream {
namespace {

TEST(BisectTest, FindsRootOfLinearFunction) {
  auto root = Bisect([](double x) { return x - 3.0; }, 0, 10);
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value(), 3.0, 1e-8);
}

TEST(BisectTest, FindsRootOfTranscendental) {
  // cos(x) = x near 0.739085.
  auto root = Bisect([](double x) { return std::cos(x) - x; }, 0, 1);
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value(), 0.7390851332, 1e-8);
}

TEST(BisectTest, RejectsSameSignBracket) {
  auto root = Bisect([](double x) { return x + 1; }, 0, 10);
  EXPECT_FALSE(root.ok());
  EXPECT_EQ(root.status().code(), StatusCode::kInvalidArgument);
}

TEST(BisectTest, AcceptsRootAtEndpoint) {
  auto root = Bisect([](double x) { return x; }, 0, 5);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value(), 0.0);
}

TEST(LargestTrueTest, FindsBoundary) {
  auto r = LargestTrue([](std::int64_t n) { return n <= 37; }, 1, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 37);
}

TEST(LargestTrueTest, AllTrueReturnsHi) {
  auto r = LargestTrue([](std::int64_t) { return true; }, 1, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 10);
}

TEST(LargestTrueTest, NoneTrueReturnsNotFound) {
  auto r = LargestTrue([](std::int64_t) { return false; }, 1, 10);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(LargestTrueTest, SingletonRange) {
  auto r = LargestTrue([](std::int64_t n) { return n == 5; }, 5, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
}

TEST(GoldenSectionTest, FindsParabolaMinimum) {
  auto x = GoldenSectionMinimize(
      [](double v) { return (v - 2.5) * (v - 2.5); }, 0, 10);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value(), 2.5, 1e-6);
}

TEST(GoldenSectionTest, MatchesClosedFormOfBufferCostShape) {
  // cost(T) = alpha*T + beta*T/(T-C): minimum at C + sqrt(beta*C/alpha).
  const double alpha = 2.0, beta = 40.0, c = 1.5;
  auto x = GoldenSectionMinimize(
      [&](double t) { return alpha * t + beta * t / (t - c); }, c + 1e-6,
      1000);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value(), c + std::sqrt(beta * c / alpha), 1e-4);
}

}  // namespace
}  // namespace memstream
