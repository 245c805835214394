#include "server/edf_server.h"

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "server/timecycle_server.h"

namespace memstream::server {
namespace {

device::DiskDrive UniformFutureDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  auto disk = device::DiskDrive::Create(p);
  EXPECT_TRUE(disk.ok());
  return std::move(disk).value();
}

std::vector<StreamSpec> Spread(std::int64_t n, BytesPerSecond bit_rate,
                               Bytes capacity, Bytes min_extent) {
  std::vector<StreamSpec> streams;
  const Bytes stride = capacity * 0.9 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    streams.push_back({i, bit_rate, stride * static_cast<double>(i),
                       std::max(min_extent, stride)});
  }
  return streams;
}

TEST(EdfServerTest, LightLoadJitterFree) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 20;
  const BytesPerSecond b = 1 * kMBps;
  EdfServerConfig config;
  config.io_playback = 1.0;
  auto server = EdfStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 4 * b), config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(60.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_EQ(report.qos.underflow_events, 0);
  EXPECT_EQ(report.deadline_misses, 0);
  EXPECT_GT(report.ios_completed, n * 50);
  for (std::size_t i = 0; i < server.value().num_streams(); ++i) {
    EXPECT_GT(server.value().session(i).total_deposited(), 0.0);
  }
}

TEST(EdfServerTest, IdlesWhenBuffersFull) {
  device::DiskDrive disk = UniformFutureDisk();
  // Two slow streams: the disk is mostly idle.
  EdfServerConfig config;
  config.io_playback = 1.0;
  auto server = EdfStreamingServer::Create(
      &disk, Spread(2, 100 * kKBps, disk.Capacity(), 1 * kMB), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(60.0).ok());
  EXPECT_GT(server.value().report().idle_time, 30.0);
  EXPECT_LT(server.value().report().disk.utilization, 0.1);
  EXPECT_EQ(server.value().report().qos.underflow_events, 0);
}

TEST(EdfServerTest, OverloadMissesDeadlines) {
  device::DiskDrive disk = UniformFutureDisk();
  // 280 DVD streams with small IOs: seek overhead per IO is huge and
  // EDF's deadline ordering cannot amortize it.
  const std::int64_t n = 280;
  EdfServerConfig config;
  config.io_playback = 0.05;  // 50 ms of playback per IO
  auto server = EdfStreamingServer::Create(
      &disk, Spread(n, 1 * kMBps, disk.Capacity(), 1 * kMB), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(30.0).ok());
  EXPECT_GT(server.value().report().qos.underflow_events, 0);
  EXPECT_GT(server.value().report().deadline_misses, 0);
}

// The classical comparison: at the same per-stream buffer (2 IOs of the
// same playback length), the elevator-batched time-cycle server
// sustains a load that EDF cannot, because EDF pays near-random seeks.
TEST(EdfServerTest, TimeCycleBeatsEdfAtEqualBuffering) {
  const std::int64_t n = 200;
  const BytesPerSecond b = 1 * kMBps;

  // Find the time-cycle operating point.
  device::DiskDrive disk_tc = UniformFutureDisk();
  auto cycle =
      model::IoCycleLength(n, b, model::DiskProfile(disk_tc, n));
  ASSERT_TRUE(cycle.ok());
  DirectServerConfig tc_config;
  tc_config.cycle = cycle.value();
  auto tc_server = DirectStreamingServer::Create(
      &disk_tc, Spread(n, b, disk_tc.Capacity(), 3 * b * cycle.value()),
      tc_config);
  ASSERT_TRUE(tc_server.ok());
  ASSERT_TRUE(tc_server.value().Run(30.0).ok());
  EXPECT_EQ(tc_server.value().report().qos.underflow_events, 0);

  // EDF with the same IO size (same DRAM) on the same load.
  device::DiskDrive disk_edf = UniformFutureDisk();
  EdfServerConfig edf_config;
  edf_config.io_playback = cycle.value();
  auto edf_server = EdfStreamingServer::Create(
      &disk_edf, Spread(n, b, disk_edf.Capacity(), 3 * b * cycle.value()),
      edf_config);
  ASSERT_TRUE(edf_server.ok());
  ASSERT_TRUE(edf_server.value().Run(30.0).ok());

  // EDF wastes positioning time, so it either underflows or at minimum
  // burns measurably more disk time per delivered byte.
  const double tc_busy_per_io =
      tc_server.value().report().disk.busy /
      static_cast<double>(tc_server.value().report().ios_completed);
  const double edf_busy_per_io =
      edf_server.value().report().disk.busy /
      static_cast<double>(
          std::max<std::int64_t>(edf_server.value().report().ios_completed,
                                 1));
  EXPECT_GT(edf_busy_per_io, tc_busy_per_io * 1.2);
}

TEST(EdfServerTest, CreateValidatesInputs) {
  device::DiskDrive disk = UniformFutureDisk();
  EdfServerConfig config;
  EXPECT_FALSE(
      EdfStreamingServer::Create(nullptr,
                                 Spread(2, 1 * kMBps, 1 * kGB, 10 * kMB),
                                 config)
          .ok());
  EXPECT_FALSE(EdfStreamingServer::Create(&disk, {}, config).ok());
  auto writes = Spread(2, 1 * kMBps, disk.Capacity(), 10 * kMB);
  writes[0].direction = StreamDirection::kWrite;
  EXPECT_FALSE(EdfStreamingServer::Create(&disk, writes, config).ok());
  config.io_playback = 0;
  EXPECT_FALSE(EdfStreamingServer::Create(
                   &disk, Spread(2, 1 * kMBps, disk.Capacity(), 10 * kMB),
                   config)
                   .ok());
}

TEST(EdfServerTest, RunTwiceRejected) {
  device::DiskDrive disk = UniformFutureDisk();
  EdfServerConfig config;
  auto server = EdfStreamingServer::Create(
      &disk, Spread(2, 1 * kMBps, disk.Capacity(), 10 * kMB), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(5.0).ok());
  EXPECT_EQ(server.value().Run(5.0).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace memstream::server
