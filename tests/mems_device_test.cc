#include "device/mems_device.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "device/device_catalog.h"

namespace memstream::device {
namespace {

MemsDevice G3() {
  auto dev = MemsDevice::Create(MemsG3());
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  return std::move(dev).value();
}

TEST(MemsDeviceTest, G3HeadlineNumbers) {
  MemsDevice dev = G3();
  EXPECT_DOUBLE_EQ(dev.MaxTransferRate(), 320 * kMBps);
  EXPECT_DOUBLE_EQ(dev.Capacity(), 10 * kGB);
  // 0.45 + 0.14 + 0.27 = 0.86 ms: the latency that makes the
  // FutureDisk/G3 latency ratio 4.3/0.86 = 5 (§5.1).
  EXPECT_NEAR(dev.MaxAccessLatency(), 0.86 * kMillisecond, 1e-9);
  // Average must sit inside Table 1's 0.4-1 ms band, below the max.
  EXPECT_GT(dev.AverageAccessLatency(), 0.4 * kMillisecond);
  EXPECT_LT(dev.AverageAccessLatency(), dev.MaxAccessLatency());
}

TEST(MemsDeviceTest, LatencyRatioAgainstFutureDiskIsFive) {
  MemsDevice dev = G3();
  const Seconds disk_avg = 4.3 * kMillisecond;  // 2.8 seek + 1.5 rotation
  EXPECT_NEAR(disk_avg / dev.MaxAccessLatency(), 5.0, 0.01);
}

TEST(MemsDeviceTest, SeekTimeZeroForSamePosition) {
  MemsDevice dev = G3();
  EXPECT_DOUBLE_EQ(dev.SeekTime(10, 0.5, 10, 0.5), 0.0);
}

TEST(MemsDeviceTest, FullStrokeSeekEqualsMaxLatency) {
  MemsDevice dev = G3();
  EXPECT_NEAR(dev.SeekTime(0, 0.0, 2499, 1.0), dev.MaxAccessLatency(),
              1e-12);
}

TEST(MemsDeviceTest, YOnlyMoveSkipsSettle) {
  MemsDevice dev = G3();
  const Seconds t = dev.SeekTime(5, 0.0, 5, 1.0);
  EXPECT_NEAR(t, 0.27 * kMillisecond, 1e-12);
}

TEST(MemsDeviceTest, XMovePaysSettle) {
  MemsDevice dev = G3();
  const Seconds t = dev.SeekTime(0, 0.0, 1, 0.0);
  EXPECT_GE(t, 0.14 * kMillisecond);
}

TEST(MemsDeviceTest, SeekMonotoneInXDistance) {
  MemsDevice dev = G3();
  Seconds prev = 0;
  for (std::int64_t r = 0; r < 2500; r += 100) {
    const Seconds t = dev.SeekTime(0, 0, r, 0);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(MemsDeviceTest, SequentialServiceHasNoPositioningCost) {
  MemsDevice dev = G3();
  dev.Reset();
  auto first = dev.Service({0, 1 * kMB}, nullptr);
  ASSERT_TRUE(first.ok());
  // Continue exactly where the sled stopped.
  auto second =
      dev.Service({static_cast<std::int64_t>(1 * kMB), 1 * kMB}, nullptr);
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second.value(), 1 * kMB / (320 * kMBps), 1e-9);
}

TEST(MemsDeviceTest, RandomServiceBoundedByMaxLatency) {
  MemsDevice dev = G3();
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const auto offset = rng.NextInt(0, static_cast<std::int64_t>(9 * kGB));
    auto t = dev.Service({offset, 64 * kKB}, nullptr);
    ASSERT_TRUE(t.ok());
    EXPECT_LE(t.value(),
              dev.MaxAccessLatency() + 64 * kKB / (320 * kMBps) + 1e-12);
  }
}

TEST(MemsDeviceTest, EffectiveThroughputMatchesFig2Shape) {
  MemsDevice dev = G3();
  // Fig. 2: at ~1 MB IOs the MEMS device already reaches ~250 MB/s while
  // the disk (4.3 ms latency) is still near 130 MB/s.
  const auto mems_tput =
      EffectiveThroughput(1 * kMB, dev.MaxAccessLatency(), 320 * kMBps);
  const auto disk_tput =
      EffectiveThroughput(1 * kMB, 4.3 * kMillisecond, 300 * kMBps);
  EXPECT_GT(mems_tput, 240 * kMBps);
  EXPECT_LT(disk_tput, 150 * kMBps);
}

// A negative size is InvalidArgument; an IO outside [0, capacity),
// including a zero-byte IO at the capacity offset, is OutOfRange; a
// failed device refuses every IO with Unavailable.
TEST(MemsDeviceTest, OutOfRangeRejected) {
  MemsDevice dev = G3();
  ASSERT_TRUE(
      dev.Service({static_cast<std::int64_t>(5 * kGB), 1 * kMB}, nullptr)
          .ok());
  const std::int64_t region = dev.current_region();
  const double y = dev.current_y();
  const auto last = static_cast<std::int64_t>(dev.Capacity());
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
  for (const Case& c : cases) {
    auto t = dev.Service(c.io, nullptr);
    ASSERT_FALSE(t.ok()) << c.io.offset << "+" << c.io.bytes;
    EXPECT_EQ(t.status().code(), c.code)
        << c.io.offset << "+" << c.io.bytes << ": " << t.status().ToString();
  }
  // A failed device refuses every IO, valid or not, with Unavailable.
  dev.SetFailed(true);
  for (const IoSpan& io : {IoSpan{0, 1 * kMB}, IoSpan{0, -1},
                           IoSpan{last, 0}}) {
    auto t = dev.Service(io, nullptr);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kUnavailable);
  }
  // A rejected IO neither moves the sled nor counts as serviced.
  EXPECT_EQ(dev.current_region(), region);
  EXPECT_EQ(dev.current_y(), y);
  EXPECT_EQ(dev.ios_serviced(), 1);
  // Repair resumes in place.
  dev.SetFailed(false);
  EXPECT_TRUE(dev.Service({0, 1 * kMB}, nullptr).ok());
}

// ---------------------------------------------------------------------
// Pinned service numbers: a seeded run of >10 000 IOs whose service
// times and sled positions are folded into an FNV-1a digest. Any change
// to the sled or transfer arithmetic changes a digest.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void MixU64(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFFu;
    *h *= kFnvPrime;
  }
}

/// Random IOs interleaved with the edge cases: IOs straddling, ending on
/// and starting at every region boundary, multi-region IOs, IOs ending
/// on the last byte, the whole device in one IO, and zero-byte IOs.
std::vector<IoSpan> PinnedIos(const MemsDevice& dev) {
  const Bytes capacity = dev.Capacity();
  const auto last = static_cast<std::int64_t>(capacity);
  const std::int64_t regions = dev.parameters().num_regions;
  const Bytes region_cap = capacity / static_cast<double>(regions);
  std::vector<IoSpan> edges;
  for (std::int64_t r = 1; r < regions; ++r) {
    const Bytes boundary = static_cast<double>(r) * region_cap;
    const auto below = static_cast<std::int64_t>(boundary);
    const std::int64_t d = r % 3 == 0 ? 1 : (r % 3 == 1 ? 4096 : 65536);
    edges.push_back({below - d, 2.0 * static_cast<Bytes>(d)});
    edges.push_back({below - d, static_cast<Bytes>(d)});
    edges.push_back({below, 0});
    if (r % 50 == 0) edges.push_back({below - d, 3.5 * region_cap});
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
  for (int i = 0; i < 5000; ++i) {
    const Bytes bytes =
        i % 10 == 0 ? 0.0 : static_cast<Bytes>(rng.NextInt(1, 2 * 1000 * 1000));
    const auto max_offset = static_cast<std::int64_t>(capacity - bytes);
    ios.push_back({rng.NextInt(0, max_offset), bytes});
    if (static_cast<std::size_t>(i) < edges.size()) {
      ios.push_back(edges[static_cast<std::size_t>(i)]);
    }
  }
  for (std::size_t i = 5000; i < edges.size(); ++i) ios.push_back(edges[i]);
  return ios;
}

/// Services PinnedIos twice, with and without an rng (which the model
/// ignores), and digests every service time and post-IO sled position.
std::uint64_t PinnedDigest(MemsDevice dev, std::int64_t* ios_run) {
  const std::vector<IoSpan> ios = PinnedIos(dev);
  std::uint64_t h = kFnvOffset;
  Rng rng(977);
  *ios_run = 0;
  for (Rng* r : {static_cast<Rng*>(nullptr), &rng}) {
    dev.Reset();
    for (const IoSpan& io : ios) {
      auto t = dev.Service(io, r);
      EXPECT_TRUE(t.ok()) << io.offset << "+" << io.bytes << ": "
                          << t.status().ToString();
      if (!t.ok()) return 0;
      MixU64(&h, std::bit_cast<std::uint64_t>(t.value()));
      MixU64(&h, static_cast<std::uint64_t>(dev.current_region()));
      MixU64(&h, std::bit_cast<std::uint64_t>(dev.current_y()));
      ++*ios_run;
    }
  }
  MixU64(&h, std::bit_cast<std::uint64_t>(dev.busy_seconds()));
  return h;
}

TEST(MemsDeviceTest, PinnedServiceDigest) {
  struct Case {
    MemsParameters params;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {MemsG3(), 0xb8e94bc1d18d44d6ull},
      {MemsG1(), 0xd3751f383bca3f8full},
  };
  for (const Case& c : cases) {
    auto dev = MemsDevice::Create(c.params);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    std::int64_t ios_run = 0;
    const std::uint64_t digest =
        PinnedDigest(std::move(dev).value(), &ios_run);
    EXPECT_GE(ios_run, 10000);
    EXPECT_EQ(digest, c.digest)
        << c.params.name << ": 0x" << std::hex << digest << "ull";
  }
}

TEST(MemsDeviceTest, InvalidParametersRejected) {
  MemsParameters p = MemsG3();
  p.transfer_rate = 0;
  EXPECT_FALSE(MemsDevice::Create(p).ok());
  p = MemsG3();
  p.num_regions = 0;
  EXPECT_FALSE(MemsDevice::Create(p).ok());
  p = MemsG3();
  p.x_settle = -1;
  EXPECT_FALSE(MemsDevice::Create(p).ok());
}

TEST(MemsDeviceTest, GenerationsImproveMonotonically) {
  auto g1 = MemsG1();
  auto g2 = MemsG2();
  auto g3 = MemsG3();
  EXPECT_LT(g1.transfer_rate, g2.transfer_rate);
  EXPECT_LT(g2.transfer_rate, g3.transfer_rate);
  EXPECT_LT(g1.capacity, g2.capacity);
  EXPECT_LT(g2.capacity, g3.capacity);
  EXPECT_GT(g1.x_full_stroke, g3.x_full_stroke);
}

}  // namespace
}  // namespace memstream::device
