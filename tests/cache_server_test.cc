#include "server/cache_server.h"

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/profiles.h"
#include "model/timecycle.h"

namespace memstream::server {
namespace {

device::DiskDrive UniformFutureDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  auto disk = device::DiskDrive::Create(p);
  EXPECT_TRUE(disk.ok());
  return std::move(disk).value();
}

std::vector<device::MemsDevice> G3Bank(std::int64_t k) {
  std::vector<device::MemsDevice> bank;
  for (std::int64_t i = 0; i < k; ++i) {
    auto dev = device::MemsDevice::Create(device::MemsG3());
    EXPECT_TRUE(dev.ok());
    bank.push_back(std::move(dev).value());
  }
  return bank;
}

model::DeviceProfile G3Profile() {
  return model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
}

struct Workload {
  std::vector<CacheStreamSpec> streams;
  CacheServerConfig config;
};

// n_disk uncached + n_cache cached streams, both sides sized analytically
// (Theorem 1 on the disk side, Theorems 3/4 on the cache side).
Workload MakeWorkload(const device::DiskDrive& disk, std::int64_t n_disk,
                      std::int64_t n_cache, std::int64_t k,
                      model::CachePolicy policy, BytesPerSecond b) {
  Workload w;
  w.config.policy = policy;
  if (n_disk > 0) {
    auto cycle = model::IoCycleLength(n_disk, b, model::DiskProfile(disk, n_disk));
    EXPECT_TRUE(cycle.ok());
    w.config.disk_cycle = cycle.value();
  }
  if (n_cache > 0) {
    auto s = model::CachePerStreamBuffer(n_cache, b, k, G3Profile(), policy);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    w.config.mems_cycle = s.value() / b;
  }

  const Bytes disk_stride =
      disk.Capacity() * 0.9 / std::max<std::int64_t>(n_disk, 1);
  for (std::int64_t i = 0; i < n_disk; ++i) {
    w.streams.push_back({i, b, false, disk_stride * static_cast<double>(i),
                         std::max(disk_stride, 2 * b * w.config.disk_cycle)});
  }
  const Bytes bank_content = policy == model::CachePolicy::kStriped
                                 ? 10 * kGB * static_cast<double>(k)
                                 : 10 * kGB;
  const Bytes cache_stride =
      bank_content * 0.9 / std::max<std::int64_t>(n_cache, 1);
  for (std::int64_t i = 0; i < n_cache; ++i) {
    w.streams.push_back(
        {n_disk + i, b, true, cache_stride * static_cast<double>(i),
         std::max(cache_stride, 2 * b * w.config.mems_cycle)});
  }
  return w;
}

class CachePolicyTest
    : public ::testing::TestWithParam<model::CachePolicy> {};

INSTANTIATE_TEST_SUITE_P(BothPolicies, CachePolicyTest,
                         ::testing::Values(model::CachePolicy::kStriped,
                                           model::CachePolicy::kReplicated),
                         [](const auto& info) {
                           return model::CachePolicyName(info.param);
                         });

// Theorems 3/4 sizing must execute jitter-free under both policies, with
// the disk side running concurrently.
TEST_P(CachePolicyTest, AnalyticSizingJitterFree) {
  device::DiskDrive disk = UniformFutureDisk();
  Workload w = MakeWorkload(disk, 20, 40, 4, GetParam(), 1 * kMBps);
  auto server =
      CacheStreamingServer::Create(&disk, G3Bank(4), w.streams, w.config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(30.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_EQ(report.qos.underflow_events, 0);
  EXPECT_DOUBLE_EQ(report.qos.underflow_time, 0.0);
  EXPECT_EQ(report.disk.overruns, 0);
  EXPECT_EQ(report.mems.overruns, 0);
  EXPECT_GT(report.disk.cycles, 0);
  EXPECT_GT(report.mems.cycles, 0);
}

TEST_P(CachePolicyTest, EveryStreamPlays) {
  device::DiskDrive disk = UniformFutureDisk();
  Workload w = MakeWorkload(disk, 5, 15, 3, GetParam(), 1 * kMBps);
  auto server =
      CacheStreamingServer::Create(&disk, G3Bank(3), w.streams, w.config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(20.0).ok());
  for (std::size_t i = 0; i < server.value().num_streams(); ++i) {
    EXPECT_GT(server.value().session(i).total_deposited(), 0.0)
        << "stream " << i;
  }
}

TEST(CacheServerTest, CacheOnlyWorkloadNeedsNoDisk) {
  Workload w;
  w.config.policy = model::CachePolicy::kReplicated;
  auto s = model::CachePerStreamBuffer(10, 1 * kMBps, 2, G3Profile(),
                                       w.config.policy);
  ASSERT_TRUE(s.ok());
  w.config.mems_cycle = s.value() / (1 * kMBps);
  for (std::int64_t i = 0; i < 10; ++i) {
    w.streams.push_back({i, 1 * kMBps, true,
                         static_cast<double>(i) * 0.9 * kGB, 0.9 * kGB});
  }
  auto server =
      CacheStreamingServer::Create(nullptr, G3Bank(2), w.streams, w.config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(20.0).ok());
  EXPECT_EQ(server.value().report().qos.underflow_events, 0);
  EXPECT_EQ(server.value().report().disk.cycles, 0);
}

TEST(CacheServerTest, ReplicatedSpreadsLoadAcrossDevices) {
  device::DiskDrive disk = UniformFutureDisk();
  Workload w = MakeWorkload(disk, 0, 30, 3, model::CachePolicy::kReplicated,
                            1 * kMBps);
  auto server =
      CacheStreamingServer::Create(&disk, G3Bank(3), w.streams, w.config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(20.0).ok());
  // Per-device utilization well below 1 (load split 3 ways).
  EXPECT_LT(server.value().report().mems.utilization, 0.5);
  EXPECT_GT(server.value().report().mems.utilization, 0.0);
}

TEST(CacheServerTest, UndersizedCacheCycleUnderflows) {
  device::DiskDrive disk = UniformFutureDisk();
  // 200 streams at 1 MB/s on one G3 device with a cycle 10x too short:
  // seek overhead per cycle exceeds the cycle.
  Workload w = MakeWorkload(disk, 0, 200, 1, model::CachePolicy::kStriped,
                            1 * kMBps);
  w.config.mems_cycle *= 0.1;
  for (auto& s : w.streams) s.extent *= 2;  // keep one IO inside extents
  auto server =
      CacheStreamingServer::Create(&disk, G3Bank(1), w.streams, w.config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(20.0).ok());
  EXPECT_GT(server.value().report().mems.overruns, 0);
}

TEST(CacheServerTest, CachedStreamBeyondBankRejected) {
  device::DiskDrive disk = UniformFutureDisk();
  CacheServerConfig config;
  config.policy = model::CachePolicy::kReplicated;  // capacity 10 GB
  std::vector<CacheStreamSpec> streams{
      {0, 1 * kMBps, true, 15 * kGB, 1 * kGB}};
  EXPECT_FALSE(
      CacheStreamingServer::Create(&disk, G3Bank(2), streams, config).ok());
}

TEST(CacheServerTest, UncachedStreamWithoutDiskRejected) {
  CacheServerConfig config;
  std::vector<CacheStreamSpec> streams{
      {0, 1 * kMBps, false, 0, 1 * kGB}};
  EXPECT_FALSE(
      CacheStreamingServer::Create(nullptr, G3Bank(1), streams, config)
          .ok());
}

}  // namespace
}  // namespace memstream::server
