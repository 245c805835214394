#include "model/scale_out.h"

#include <gtest/gtest.h>

#include "device/device_catalog.h"

namespace memstream::model {
namespace {

ScaleOutConfig FarmConfig(std::int64_t disks, BytesPerSecond bit_rate,
                          Bytes dram) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  ScaleOutConfig config;
  config.num_disks = disks;
  config.disk_latency = DiskLatencyFn(disk.value());
  config.bit_rate = bit_rate;
  config.dram_budget = dram;
  return config;
}

DeviceProfile G3Profile() {
  return MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
}

TEST(ScaleOutTest, SingleDiskMatchesTheorem1Budget) {
  auto plan = PlanScaleOut(FarmConfig(1, 10 * kKBps, 5 * kGB));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Must agree with the direct budget solver.
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  ASSERT_TRUE(disk.ok());
  const auto expected = MaxStreamsWithBuffer(
      5 * kGB, 10 * kKBps, 300 * kMBps, DiskLatencyFn(disk.value()));
  EXPECT_EQ(plan.value().streams_per_disk, expected);
  EXPECT_EQ(plan.value().total_streams, expected);
}

TEST(ScaleOutTest, FarmScalesSuperlinearlyWhenDramBound) {
  // DRAM-bound regime: splitting the budget over more disks shortens
  // each disk's queue but the farm total still grows (buffering is
  // superlinear in per-disk stream count, so spreading wins).
  auto one = PlanScaleOut(FarmConfig(1, 100 * kKBps, 10 * kGB));
  auto four = PlanScaleOut(FarmConfig(4, 100 * kKBps, 10 * kGB));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_GT(four.value().total_streams, one.value().total_streams);
  EXPECT_LT(four.value().streams_per_disk, one.value().streams_per_disk);
}

TEST(ScaleOutTest, BandwidthBoundRegimeScalesLinearly) {
  // Huge DRAM: every disk saturates its bandwidth bound (299 DVD
  // streams), so the farm scales exactly linearly.
  auto one = PlanScaleOut(FarmConfig(1, 1 * kMBps, 1 * kTB));
  auto eight = PlanScaleOut(FarmConfig(8, 1 * kMBps, 1 * kTB));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one.value().streams_per_disk, 299);
  EXPECT_EQ(eight.value().total_streams, 8 * 299);
}

TEST(ScaleOutTest, DramAccountingRespectsBudget) {
  auto plan = PlanScaleOut(FarmConfig(6, 100 * kKBps, 3 * kGB));
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan.value().dram_total, 3 * kGB * (1 + 1e-9));
  EXPECT_NEAR(plan.value().dram_total,
              plan.value().dram_per_disk * 6, 1e-3);
}

TEST(ScaleOutTest, PerDiskBuffersLiftTheFarm) {
  ScaleOutConfig config = FarmConfig(4, 100 * kKBps, 2 * kGB);
  config.buffer_k_per_disk = 2;
  config.mems = G3Profile();
  ScaleOutConfig direct = config;
  direct.buffer_k_per_disk = 0;
  auto base = PlanScaleOut(direct);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto plan = PlanScaleOut(config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Same DRAM budget, more streams.
  EXPECT_GT(static_cast<double>(plan.value().total_streams),
            1.3 * static_cast<double>(base.value().total_streams));
  EXPECT_EQ(plan.value().mems_devices_total, 8);
}

TEST(ScaleOutTest, UtilizationReported) {
  auto plan = PlanScaleOut(FarmConfig(2, 1 * kMBps, 1 * kTB));
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan.value().disk_utilization, 299.0 / 300.0, 1e-9);
}

TEST(ScaleOutTest, InvalidInputsRejected) {
  ScaleOutConfig config;  // no latency fn
  EXPECT_FALSE(PlanScaleOut(config).ok());
  auto valid = FarmConfig(4, 1 * kMBps, 1 * kGB);
  valid.num_disks = 0;
  EXPECT_FALSE(PlanScaleOut(valid).ok());
  valid = FarmConfig(4, 1 * kMBps, 1 * kGB);
  valid.dram_budget = 0;
  EXPECT_FALSE(PlanScaleOut(valid).ok());
  valid = FarmConfig(4, 400 * kMBps, 1 * kGB);  // saturates a disk
  EXPECT_EQ(PlanScaleOut(valid).status().code(), StatusCode::kInfeasible);
}

}  // namespace
}  // namespace memstream::model
