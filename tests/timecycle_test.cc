#include "model/timecycle.h"

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/stream.h"

namespace memstream::model {
namespace {

DeviceProfile FutureDiskAt(std::int64_t n) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  return DiskProfile(disk.value(), n);
}

DeviceProfile FlatProfile(BytesPerSecond rate, Seconds latency) {
  DeviceProfile p;
  p.rate = rate;
  p.latency = latency;
  return p;
}

TEST(Theorem1Test, ClosedFormMatchesFixedPoint) {
  // Theorem 1 is the fixed point of T = N (L + S/R), S = B*T. Verify the
  // closed form satisfies both equations.
  const auto dev = FlatProfile(300 * kMBps, 4.3 * kMillisecond);
  const std::int64_t n = 100;
  const BytesPerSecond b = 1 * kMBps;
  auto s = PerStreamBufferSize(n, b, dev);
  ASSERT_TRUE(s.ok());
  const Seconds t = s.value() / b;
  EXPECT_NEAR(t,
              static_cast<double>(n) * (dev.latency + s.value() / dev.rate),
              1e-9);
}

TEST(Theorem1Test, InfeasibleAtBandwidthBound) {
  const auto dev = FlatProfile(300 * kMBps, 4.3 * kMillisecond);
  // 300 streams at 1 MB/s saturate a 300 MB/s disk exactly.
  EXPECT_FALSE(PerStreamBufferSize(300, 1 * kMBps, dev).ok());
  EXPECT_TRUE(PerStreamBufferSize(299, 1 * kMBps, dev).ok());
  EXPECT_EQ(PerStreamBufferSize(300, 1 * kMBps, dev).status().code(),
            StatusCode::kInfeasible);
}

TEST(Theorem1Test, BufferDivergesNearSaturation) {
  const auto dev = FlatProfile(300 * kMBps, 4.3 * kMillisecond);
  auto s290 = PerStreamBufferSize(290, 1 * kMBps, dev);
  auto s299 = PerStreamBufferSize(299, 1 * kMBps, dev);
  ASSERT_TRUE(s290.ok());
  ASSERT_TRUE(s299.ok());
  EXPECT_GT(s299.value(), 5 * s290.value());
}

TEST(Theorem1Test, MonotoneIncreasingInN) {
  const auto dev = FlatProfile(300 * kMBps, 4.3 * kMillisecond);
  Bytes prev = 0;
  for (std::int64_t n = 1; n <= 250; n += 10) {
    auto s = TotalBufferSize(n, 1 * kMBps, dev);
    ASSERT_TRUE(s.ok());
    EXPECT_GT(s.value(), prev);
    prev = s.value();
  }
}

TEST(Theorem1Test, PaperScaleCheck10KBs) {
  // §5.1.1: without MEMS, ~1 TB DRAM for a fully-utilized FutureDisk at
  // 10 KB/s streams, ~1 GB at 10 MB/s (order of magnitude check).
  const std::int64_t n_mp3 = 29000;  // ~97% of the 30000 bandwidth bound
  auto total_mp3 = TotalBufferSize(n_mp3, 10 * kKBps, FutureDiskAt(n_mp3));
  ASSERT_TRUE(total_mp3.ok());
  EXPECT_GT(total_mp3.value(), 0.2 * kTB);
  EXPECT_LT(total_mp3.value(), 5.0 * kTB);

  const std::int64_t n_hdtv = 29;
  auto total_hdtv =
      TotalBufferSize(n_hdtv, 10 * kMBps, FutureDiskAt(n_hdtv));
  ASSERT_TRUE(total_hdtv.ok());
  EXPECT_GT(total_hdtv.value(), 0.2 * kGB);
  EXPECT_LT(total_hdtv.value(), 5.0 * kGB);
}

TEST(Theorem1Test, ElevatorLatencyShrinksBuffer) {
  // The scheduler-determined latency falls with N, so the real system
  // needs less DRAM than the naive average-latency estimate.
  const std::int64_t n = 1000;
  auto elevator = TotalBufferSize(n, 100 * kKBps, FutureDiskAt(n));
  auto naive = TotalBufferSize(
      n, 100 * kKBps, FlatProfile(300 * kMBps, 4.3 * kMillisecond));
  ASSERT_TRUE(elevator.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_LT(elevator.value(), naive.value());
}

TEST(MaxStreamsBandwidthBoundTest, StrictInequality) {
  EXPECT_EQ(MaxStreamsBandwidthBound(300 * kMBps, 1 * kMBps), 299);
  EXPECT_EQ(MaxStreamsBandwidthBound(300 * kMBps, 10 * kMBps), 29);
  EXPECT_EQ(MaxStreamsBandwidthBound(300 * kMBps, 10 * kKBps), 29999);
  EXPECT_EQ(MaxStreamsBandwidthBound(300 * kMBps, 400 * kMBps), 0);
}

TEST(IoCycleTest, CycleEqualsBufferOverRate) {
  const auto dev = FlatProfile(320 * kMBps, 0.86 * kMillisecond);
  auto s = PerStreamBufferSize(50, 1 * kMBps, dev);
  auto t = IoCycleLength(50, 1 * kMBps, dev);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), s.value() / (1 * kMBps));
}

TEST(MaxStreamsWithBufferTest, RespectsBudget) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  ASSERT_TRUE(disk.ok());
  const auto latency = DiskLatencyFn(disk.value());
  const Bytes budget = 5 * kGB;
  const auto n =
      MaxStreamsWithBuffer(budget, 10 * kKBps, 300 * kMBps, latency);
  ASSERT_GT(n, 0);
  DeviceProfile at_n = FlatProfile(300 * kMBps, latency(n));
  auto used = TotalBufferSize(n, 10 * kKBps, at_n);
  ASSERT_TRUE(used.ok());
  EXPECT_LE(used.value(), budget);
  // One more stream must not fit.
  DeviceProfile at_n1 = FlatProfile(300 * kMBps, latency(n + 1));
  auto over = TotalBufferSize(n + 1, 10 * kKBps, at_n1);
  if (over.ok()) {
    EXPECT_GT(over.value(), budget);
  }
}

TEST(MaxStreamsWithBufferTest, HighBitRateIsBandwidthLimited) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  ASSERT_TRUE(disk.ok());
  // §5.1.3: at 10 MB/s even 5 GB DRAM is under-utilized; the bound is the
  // disk bandwidth (29 streams), needing only ~1.5 GB.
  const auto n = MaxStreamsWithBuffer(5 * kGB, 10 * kMBps, 300 * kMBps,
                                      DiskLatencyFn(disk.value()));
  EXPECT_EQ(n, 29);
}

TEST(MaxStreamsWithBufferTest, ZeroBudgetZeroStreams) {
  EXPECT_EQ(MaxStreamsWithBuffer(0, 1 * kMBps, 300 * kMBps,
                                 [](std::int64_t) { return 4e-3; }),
            0);
}

TEST(CanSustainTest, Boundary) {
  const auto dev = FlatProfile(100 * kMBps, 1 * kMillisecond);
  EXPECT_TRUE(CanSustain(99, 1 * kMBps, dev));
  EXPECT_FALSE(CanSustain(100, 1 * kMBps, dev));
}

TEST(Theorem1Test, InvalidInputsRejected) {
  const auto dev = FlatProfile(100 * kMBps, 1 * kMillisecond);
  EXPECT_FALSE(PerStreamBufferSize(0, 1 * kMBps, dev).ok());
  EXPECT_FALSE(PerStreamBufferSize(10, 0, dev).ok());
  EXPECT_FALSE(
      PerStreamBufferSize(10, 1 * kMBps, FlatProfile(0, 1e-3)).ok());
}

}  // namespace
}  // namespace memstream::model
