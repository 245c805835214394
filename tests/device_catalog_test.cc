#include "device/device_catalog.h"

#include <gtest/gtest.h>

namespace memstream::device {
namespace {

TEST(CatalogTest, Table1HasSixRowsInPaperOrder) {
  const auto rows = Table1Rows();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].year, 2002);
  EXPECT_EQ(rows[0].medium, "DRAM");
  EXPECT_EQ(rows[1].medium, "MEMS");
  EXPECT_EQ(rows[1].capacity_gb, "n/a");  // MEMS does not exist in 2002
  EXPECT_EQ(rows[5].year, 2007);
  EXPECT_EQ(rows[5].medium, "Disk");
  EXPECT_EQ(rows[5].capacity_gb, "1000");
}

TEST(CatalogTest, Table3HasThreeColumns) {
  const auto cols = Table3Columns();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0].name, "FutureDisk");
  EXPECT_EQ(cols[1].name, "G3 MEMS");
  EXPECT_EQ(cols[2].name, "DRAM");
  EXPECT_DOUBLE_EQ(cols[0].max_bandwidth_mbps, 300);
  EXPECT_DOUBLE_EQ(cols[1].max_bandwidth_mbps, 320);
  EXPECT_DOUBLE_EQ(cols[2].max_bandwidth_mbps, 10000);
  // Corrected capacity row (see device_catalog.h header comment).
  EXPECT_DOUBLE_EQ(cols[0].capacity_gb, 1000);
  EXPECT_DOUBLE_EQ(cols[1].capacity_gb, 10);
  EXPECT_DOUBLE_EQ(cols[2].capacity_gb, 5);
}

TEST(CatalogTest, CostPerGbMatchesPaper) {
  const auto cols = Table3Columns();
  EXPECT_DOUBLE_EQ(cols[0].cost_per_gb, 0.2);
  EXPECT_DOUBLE_EQ(cols[1].cost_per_gb, 1.0);
  EXPECT_DOUBLE_EQ(cols[2].cost_per_gb, 20.0);
}

TEST(CatalogTest, PresetsConstructValidDevices) {
  EXPECT_TRUE(DiskDrive::Create(FutureDisk2007()).ok());
  EXPECT_TRUE(MemsDevice::Create(MemsG1()).ok());
  EXPECT_TRUE(MemsDevice::Create(MemsG2()).ok());
  EXPECT_TRUE(MemsDevice::Create(MemsG3()).ok());
}

TEST(CatalogTest, MemsBufferingIsTwentyTimesCheaperThanDram) {
  // §5.1.2: "MEMS buffering is 20 times cheaper than DRAM buffering
  // per-byte" at 2007 prices, with DRAM priced as Table 3 prints it.
  const auto mems = MemsG3();
  const auto dram = Table3Columns()[2];
  ASSERT_EQ(dram.name, "DRAM");
  const double mems_per_gb = mems.cost_per_device / (mems.capacity / kGB);
  EXPECT_NEAR(dram.cost_per_gb / mems_per_gb, 20.0, 1e-9);
}

TEST(CatalogTest, G3SupportsTwiceFutureDiskWithTwoDevices) {
  // §5.1: two G3 devices give 640 MB/s >= 2 x 300 MB/s disk bandwidth.
  EXPECT_GE(2 * MemsG3().transfer_rate, 2 * FutureDisk2007().outer_rate);
  EXPECT_LT(MemsG3().transfer_rate, 2 * FutureDisk2007().outer_rate);
}

}  // namespace
}  // namespace memstream::device
