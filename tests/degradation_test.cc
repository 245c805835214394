#include "fault/degradation.h"

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/profiles.h"

namespace memstream::fault {
namespace {

model::DeviceProfile G3Profile() {
  return model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
}

model::DeviceProfile DiskProfile(std::int64_t n) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  return model::DiskProfileConservative(disk.value(), n);
}

DegradationConfig BaseConfig(model::CachePolicy policy) {
  DegradationConfig config;
  config.policy = policy;
  config.k = 2;
  config.bit_rate = 8 * kMBps;
  config.mems = G3Profile();
  config.disk = DiskProfile(30);
  config.n_disk = 15;
  config.n_cache = 15;
  config.refill_delay = 1.0;
  return config;
}

TEST(DegradationTest, HealthyBankReplansToFullStrength) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kReplicated));
  ASSERT_TRUE(manager.ok());
  CacheReplan plan = manager.value().Replan(2);
  EXPECT_TRUE(plan.feasible);
  EXPECT_FALSE(plan.cache_down);
  EXPECT_EQ(plan.retained, 15);
  EXPECT_EQ(plan.shed, 0);
  EXPECT_EQ(plan.to_disk, 0);
  EXPECT_GT(plan.mems_cycle, 0.0);
}

TEST(DegradationTest, ReplicatedDeviceLossReshapesWithLongerCycle) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kReplicated));
  ASSERT_TRUE(manager.ok());
  const CacheReplan healthy = manager.value().Replan(2);
  const CacheReplan degraded = manager.value().Replan(1);
  EXPECT_TRUE(degraded.feasible);
  EXPECT_FALSE(degraded.cache_down);
  // One G3 device still sustains all 15 cached streams (Theorem 4 with
  // k' = 1), at the cost of a bigger per-stream buffer / longer cycle.
  EXPECT_EQ(degraded.retained, 15);
  EXPECT_EQ(degraded.shed, 0);
  EXPECT_GT(degraded.mems_cycle, healthy.mems_cycle);
  EXPECT_GT(degraded.per_stream_buffer, healthy.per_stream_buffer);
  EXPECT_NE(degraded.action.find("reshape"), std::string::npos);
}

TEST(DegradationTest, ReplicatedDeviceLossShedsFewestStreams) {
  auto config = BaseConfig(model::CachePolicy::kReplicated);
  // Two G3 devices carry 60 cached 8 MB/s streams; one alone sustains
  // only ~40 of them.
  config.n_cache = 60;
  auto manager = DegradationManager::Create(config);
  ASSERT_TRUE(manager.ok());
  EXPECT_EQ(manager.value().Replan(2).shed, 0);
  const CacheReplan plan = manager.value().Replan(1);
  ASSERT_TRUE(plan.feasible);
  EXPECT_FALSE(plan.cache_down);
  EXPECT_GT(plan.shed, 0);
  EXPECT_EQ(plan.retained + plan.shed, config.n_cache);
  EXPECT_EQ(plan.shed, config.n_cache - manager.value().MaxSustainable(1));
  EXPECT_NE(plan.action.find("shed"), std::string::npos);
}

TEST(DegradationTest, StripedDeviceLossDropsTheCachePath) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kStriped));
  ASSERT_TRUE(manager.ok());
  const CacheReplan plan = manager.value().Replan(1);
  EXPECT_TRUE(plan.cache_down);
  EXPECT_EQ(plan.retained, 0);
  // The zoned disk serving 15 streams at 8 MB/s has some headroom, but
  // not 15 streams' worth: a mix of fallback and shedding.
  EXPECT_GT(plan.to_disk, 0);
  EXPECT_GT(plan.shed, 0);
  EXPECT_EQ(plan.to_disk + plan.shed, 15);
  EXPECT_GT(plan.disk_cycle, 0.0);
  EXPECT_NE(plan.action.find("cache down"), std::string::npos);
}

TEST(DegradationTest, DiskFallbackRespectsTheoremOneBound) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kStriped));
  ASSERT_TRUE(manager.ok());
  const CacheReplan plan = manager.value().Replan(0);
  // Whatever moved must itself be a feasible Theorem 1 extension...
  EXPECT_TRUE(manager.value().DiskCanAbsorb(plan.to_disk));
  // ...and one more stream must not be (the binary search is maximal).
  EXPECT_FALSE(manager.value().DiskCanAbsorb(plan.to_disk + 1));
}

TEST(DegradationTest, DisabledFallbackShedsEverythingOnCacheDown) {
  auto config = BaseConfig(model::CachePolicy::kStriped);
  config.disk.rate = 0;  // no disk bandwidth to fall back on
  auto manager = DegradationManager::Create(config);
  ASSERT_TRUE(manager.ok());
  const CacheReplan plan = manager.value().Replan(1);
  EXPECT_TRUE(plan.cache_down);
  EXPECT_EQ(plan.to_disk, 0);
  EXPECT_EQ(plan.shed, 15);
  EXPECT_FALSE(plan.feasible);
}

TEST(DegradationTest, CreateValidates) {
  DegradationConfig config = BaseConfig(model::CachePolicy::kReplicated);
  config.k = 0;
  EXPECT_FALSE(DegradationManager::Create(config).ok());
  config = BaseConfig(model::CachePolicy::kReplicated);
  config.bit_rate = 0;
  EXPECT_FALSE(DegradationManager::Create(config).ok());
  config = BaseConfig(model::CachePolicy::kReplicated);
  config.refill_delay = -1;
  EXPECT_FALSE(DegradationManager::Create(config).ok());
}

}  // namespace
}  // namespace memstream::fault
