#include "model/cost.h"

#include <gtest/gtest.h>

namespace memstream::model {
namespace {

CostInputs Prices2007() {
  CostInputs prices;
  prices.dram_per_byte = 20.0 / kGB;
  prices.mems_per_byte = 1.0 / kGB;
  return prices;
}

TEST(CostTest, PerByteChargesOnlyUsage) {
  const Dollars cost =
      CostWithMemsBufferPerByte(1000, 5 * kGB, 0.1 * kMB, Prices2007());
  EXPECT_NEAR(cost, 5.0 + 2.0, 1e-9);
}

TEST(PercentReductionTest, Basics) {
  EXPECT_DOUBLE_EQ(PercentReduction(100, 20), 80.0);
  EXPECT_DOUBLE_EQ(PercentReduction(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(PercentReduction(100, 130), -30.0);
  EXPECT_DOUBLE_EQ(PercentReduction(0, 10), 0.0);
}

}  // namespace
}  // namespace memstream::model
