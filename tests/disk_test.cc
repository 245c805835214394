#include "device/disk.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "device/device_catalog.h"

namespace memstream::device {
namespace {

DiskDrive Future() {
  auto disk = DiskDrive::Create(FutureDisk2007());
  EXPECT_TRUE(disk.ok()) << disk.status().ToString();
  return std::move(disk).value();
}

TEST(DiskTest, FutureDiskHeadlineNumbers) {
  DiskDrive disk = Future();
  EXPECT_DOUBLE_EQ(disk.MaxTransferRate(), 300 * kMBps);
  EXPECT_DOUBLE_EQ(disk.Capacity(), 1000 * kGB);
  // 20 000 RPM -> 3 ms rotation, 1.5 ms average rotational delay;
  // 2.8 ms average seek -> 4.3 ms average access (the paper's L̄_disk).
  EXPECT_NEAR(disk.RotationPeriod(), 3.0 * kMillisecond, 1e-9);
  EXPECT_NEAR(disk.AverageAccessLatency(), 4.3 * kMillisecond, 1e-6);
  EXPECT_NEAR(disk.MaxAccessLatency(), 10.0 * kMillisecond, 1e-6);
}

TEST(DiskTest, ServiceTimeSeekPlusRotationPlusTransfer) {
  DiskDrive disk = Future();
  disk.Reset();
  // From cylinder 0 to itself: no seek, expected rotation, zoned rate.
  auto t = disk.Service({0, 300 * kMB}, nullptr);
  ASSERT_TRUE(t.ok());
  // half rotation (1.5 ms) + 300MB / 300MB/s (1 s)
  EXPECT_NEAR(t.value(), 1.0 + 1.5 * kMillisecond, 1e-6);
}

TEST(DiskTest, SequentialIoFasterThanRandom) {
  DiskDrive disk = Future();
  disk.Reset();
  ASSERT_TRUE(disk.Service({0, 1 * kMB}, nullptr).ok());
  auto sequential = disk.Service({static_cast<std::int64_t>(1 * kMB), 1 * kMB},
                                 nullptr);
  disk.Reset();
  ASSERT_TRUE(disk.Service({0, 1 * kMB}, nullptr).ok());
  auto random = disk.Service(
      {static_cast<std::int64_t>(900 * kGB), 1 * kMB}, nullptr);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(random.ok());
  EXPECT_LT(sequential.value(), random.value());
}

TEST(DiskTest, InnerZoneTransfersSlower) {
  DiskDrive disk = Future();
  disk.Reset();
  auto outer = disk.Service({0, 100 * kMB}, nullptr);
  disk.Reset();
  auto inner = disk.Service(
      {static_cast<std::int64_t>(999 * kGB - 100 * kMB), 100 * kMB},
      nullptr);
  ASSERT_TRUE(outer.ok());
  ASSERT_TRUE(inner.ok());
  // Compare pure transfer components by subtracting positioning bounds:
  // inner transfer is 300/170 slower, dominating any seek difference.
  EXPECT_GT(inner.value(), outer.value());
}

TEST(DiskTest, HeadPositionAdvances) {
  DiskDrive disk = Future();
  disk.Reset();
  EXPECT_EQ(disk.current_cylinder(), 0);
  ASSERT_TRUE(
      disk.Service({static_cast<std::int64_t>(500 * kGB), 1 * kMB}, nullptr)
          .ok());
  EXPECT_GT(disk.current_cylinder(), 0);
  disk.Reset();
  EXPECT_EQ(disk.current_cylinder(), 0);
}

// A negative size is InvalidArgument; an IO outside [0, capacity),
// including a zero-byte IO at the capacity offset, is OutOfRange.
TEST(DiskTest, OutOfRangeIoRejected) {
  DiskDrive disk = Future();
  ASSERT_TRUE(disk.Service({static_cast<std::int64_t>(500 * kGB), 1 * kMB},
                           nullptr)
                  .ok());
  const std::int64_t cylinder = disk.current_cylinder();
  const auto last = static_cast<std::int64_t>(disk.Capacity());
  struct Case {
    IoSpan io;
    StatusCode code;
  };
  const Case cases[] = {
      {{0, -1}, StatusCode::kInvalidArgument},
      {{last, -1}, StatusCode::kInvalidArgument},
      {{-1, 1}, StatusCode::kOutOfRange},
      {{-1, 0}, StatusCode::kOutOfRange},
      {{last - 10, 11}, StatusCode::kOutOfRange},
      {{last, 1}, StatusCode::kOutOfRange},
      {{last, 0}, StatusCode::kOutOfRange},
      {{last + 1, 0}, StatusCode::kOutOfRange},
  };
  Rng rotation(5);
  for (const Case& c : cases) {
    for (Rng* rng : {static_cast<Rng*>(nullptr), &rotation}) {
      auto t = disk.Service(c.io, rng);
      ASSERT_FALSE(t.ok()) << c.io.offset << "+" << c.io.bytes;
      EXPECT_EQ(t.status().code(), c.code)
          << c.io.offset << "+" << c.io.bytes << ": "
          << t.status().ToString();
    }
  }
  // A rejected IO neither moves the head nor counts as serviced.
  EXPECT_EQ(disk.current_cylinder(), cylinder);
  EXPECT_EQ(disk.ios_serviced(), 1);
}

TEST(DiskTest, SampledRotationWithinOnePeriod) {
  DiskDrive disk = Future();
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    disk.Reset();
    auto t = disk.Service({0, 0}, &rng);
    ASSERT_TRUE(t.ok());
    EXPECT_GE(t.value(), 0.0);
    EXPECT_LE(t.value(), disk.RotationPeriod());
  }
}

TEST(DiskTest, SchedulerDeterminedLatencyImprovesWithLoad) {
  DiskDrive disk = Future();
  auto l1 = disk.SchedulerDeterminedLatency(1);
  auto l100 = disk.SchedulerDeterminedLatency(100);
  auto l10000 = disk.SchedulerDeterminedLatency(10000);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l100.ok());
  ASSERT_TRUE(l10000.ok());
  EXPECT_GT(l1.value(), l100.value());
  EXPECT_GT(l100.value(), l10000.value());
  // Never better than the rotational floor.
  EXPECT_GE(l10000.value(), 0.5 * disk.RotationPeriod());
  // A single request pays the amortized full sweep-back on top of its gap
  // seek: full stroke + half rotation.
  EXPECT_NEAR(l1.value(),
              disk.seek_model().FullStrokeTime() + 1.5 * kMillisecond, 1e-6);
}

TEST(DiskTest, SchedulerLatencyRejectsNonPositiveN) {
  DiskDrive disk = Future();
  EXPECT_FALSE(disk.SchedulerDeterminedLatency(0).ok());
}

// ---------------------------------------------------------------------
// Pinned service numbers: a seeded run of >10 000 IOs whose service
// times and head positions are folded into an FNV-1a digest. Any change
// to the seek, rotation, zone or transfer arithmetic changes a digest.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void MixU64(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFFu;
    *h *= kFnvPrime;
  }
}

/// Random IOs interleaved with the edge cases: IOs straddling, ending
/// on and starting at every zone boundary, IOs ending on the last byte,
/// the whole disk in one IO, and zero-byte IOs.
std::vector<IoSpan> PinnedIos(const DiskDrive& disk) {
  const Bytes capacity = disk.Capacity();
  const auto last = static_cast<std::int64_t>(capacity);
  std::vector<IoSpan> edges;
  for (const Zone& zone : disk.geometry().zones()) {
    if (zone.start_offset == 0) continue;
    const auto below =
        static_cast<std::int64_t>(std::floor(zone.start_offset));
    for (std::int64_t d : {std::int64_t{1}, std::int64_t{4096},
                           static_cast<std::int64_t>(1 * kMB)}) {
      edges.push_back({below - d, 2.0 * static_cast<Bytes>(d)});
      edges.push_back({below - d, static_cast<Bytes>(d)});
    }
    // Ends exactly on the zone's first byte, then starts just past it.
    edges.push_back({below, zone.start_offset - static_cast<Bytes>(below)});
    edges.push_back({below + 1, 512});
    edges.push_back({below, 0});
  }
  for (std::int64_t b : {std::int64_t{1}, std::int64_t{4096},
                         static_cast<std::int64_t>(1 * kMB)}) {
    edges.push_back({last - b, static_cast<Bytes>(b)});
  }
  edges.push_back({0, capacity});
  edges.push_back({last - 1, 0});
  edges.push_back({0, 0});

  Rng rng(20261017);
  std::vector<IoSpan> ios;
  for (int i = 0; i < 6000; ++i) {
    const Bytes bytes =
        i % 10 == 0 ? 0.0
                    : static_cast<Bytes>(rng.NextInt(1, 4 * 1000 * 1000));
    const auto max_offset = static_cast<std::int64_t>(capacity - bytes);
    ios.push_back({rng.NextInt(0, max_offset), bytes});
    if (static_cast<std::size_t>(i) < edges.size()) {
      ios.push_back(edges[static_cast<std::size_t>(i)]);
    }
  }
  return ios;
}

/// Services PinnedIos twice (expected and sampled rotation) and digests
/// every service time and post-IO cylinder.
std::uint64_t PinnedDigest(DiskDrive disk, std::int64_t* ios_run) {
  const std::vector<IoSpan> ios = PinnedIos(disk);
  std::uint64_t h = kFnvOffset;
  Rng rotation(977);
  *ios_run = 0;
  for (Rng* rng : {static_cast<Rng*>(nullptr), &rotation}) {
    disk.Reset();
    for (const IoSpan& io : ios) {
      auto t = disk.Service(io, rng);
      EXPECT_TRUE(t.ok()) << io.offset << "+" << io.bytes << ": "
                          << t.status().ToString();
      if (!t.ok()) return 0;
      MixU64(&h, std::bit_cast<std::uint64_t>(t.value()));
      MixU64(&h, static_cast<std::uint64_t>(disk.current_cylinder()));
      ++*ios_run;
    }
  }
  MixU64(&h, std::bit_cast<std::uint64_t>(disk.busy_seconds()));
  return h;
}

/// 2002 server disk (Maxtor Atlas 10K III class): 100 GB, 30-55 MB/s.
DiskParameters Disk2002() {
  DiskParameters p;
  p.name = "Disk 2002";
  p.rpm = 10000;
  p.outer_rate = 55 * kMBps;
  p.inner_rate = 30 * kMBps;
  p.capacity = 100 * kGB;
  p.track_to_track_seek = 0.4 * kMillisecond;
  p.average_seek = 4.5 * kMillisecond;
  p.full_stroke_seek = 10.5 * kMillisecond;
  p.num_cylinders = 50000;
  p.num_zones = 16;
  return p;
}

DiskParameters OddGeometryDisk() {
  DiskParameters p = Disk2002();
  p.name = "odd";
  p.capacity = 123456789012.0;
  p.num_cylinders = 33333;
  p.num_zones = 7;
  return p;
}

TEST(DiskTest, PinnedServiceDigest) {
  struct Case {
    DiskParameters params;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {FutureDisk2007(), 0xd4b0fc5205806afull},
      {Disk2002(), 0x921742158156b73dull},
      {OddGeometryDisk(), 0xb1c9367e2dd5ad74ull},
  };
  for (const Case& c : cases) {
    auto disk = DiskDrive::Create(c.params);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    std::int64_t ios_run = 0;
    const std::uint64_t digest =
        PinnedDigest(std::move(disk).value(), &ios_run);
    EXPECT_GE(ios_run, 10000);
    EXPECT_EQ(digest, c.digest)
        << c.params.name << ": 0x" << std::hex << digest << "ull";
  }
}

TEST(DiskTest, CreateRejectsBadRpm) {
  DiskParameters p = FutureDisk2007();
  p.rpm = 0;
  EXPECT_FALSE(DiskDrive::Create(p).ok());
}

}  // namespace
}  // namespace memstream::device
