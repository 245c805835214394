#include "model/planner.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "device/device_catalog.h"

namespace memstream::model {
namespace {

DeviceProfile G3Profile() {
  auto dev = device::MemsDevice::Create(device::MemsG3());
  EXPECT_TRUE(dev.ok());
  return MemsProfileMaxLatency(dev.value());
}

LatencyFn FutureDiskLatency() {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  return DiskLatencyFn(disk.value());
}

MemsBufferParams BufferParams(std::int64_t n, std::int64_t k = 2) {
  MemsBufferParams p;
  p.k = k;
  p.disk.rate = 300 * kMBps;
  p.disk.latency = FutureDiskLatency()(n);
  p.mems = G3Profile();
  p.mems_capacity_override = 1e18;  // effectively unlimited (per-byte mode)
  return p;
}

CostInputs Prices() {
  CostInputs prices;
  prices.dram_per_byte = 20.0 / kGB;
  prices.mems_per_byte = 1.0 / kGB;
  return prices;
}

// --- OptimalTdiskPerByte ----------------------------------------------------

TEST(OptimalTdiskTest, ClosedFormBeatsNeighbors) {
  // A near-saturated single-device bank, where C is large and the
  // per-byte optimum lies strictly inside the feasibility window.
  const std::int64_t n = 150;
  const BytesPerSecond b = 1 * kMBps;
  auto params = BufferParams(n, 1);
  auto best = OptimalTdiskPerByte(n, b, params, Prices());
  ASSERT_TRUE(best.ok()) << best.status().ToString();

  auto range = FeasibleTdiskRange(n, b, params);
  ASSERT_TRUE(range.ok());
  ASSERT_GT(best.value().t_disk, range.value().lower * 1.01)
      << "test needs an interior optimum";

  auto cost_at = [&](Seconds t) -> Dollars {
    auto sizing = SolveMemsBuffer(n, b, params, t);
    EXPECT_TRUE(sizing.ok());
    return CostWithMemsBufferPerByte(n, sizing.value().mems_used,
                                     sizing.value().s_mems_dram, Prices());
  };
  const Dollars at_best = cost_at(best.value().t_disk);
  EXPECT_LE(at_best, cost_at(best.value().t_disk * 1.3) + 1e-9);
  EXPECT_LE(at_best,
            cost_at(std::max(best.value().t_disk * 0.7,
                             range.value().lower)) +
                1e-9);
  EXPECT_NEAR(at_best, best.value().total_cost, 1e-9);
}

TEST(OptimalTdiskTest, BoundaryOptimumClampsToFeasibleWindow) {
  // A lightly-loaded bank: the unconstrained optimum falls below the
  // disk's real-time bound, so the planner must clamp to it.
  const std::int64_t n = 1000;
  const BytesPerSecond b = 100 * kKBps;
  auto params = BufferParams(n, 2);
  auto best = OptimalTdiskPerByte(n, b, params, Prices());
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  auto range = FeasibleTdiskRange(n, b, params);
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(best.value().t_disk, range.value().lower, 1e-9);
  // Still cheaper at the boundary than slightly inside.
  auto inside = SolveMemsBuffer(n, b, params, range.value().lower * 1.2);
  ASSERT_TRUE(inside.ok());
  EXPECT_LE(best.value().total_cost,
            CostWithMemsBufferPerByte(n, inside.value().mems_used,
                                      inside.value().s_mems_dram,
                                      Prices()) +
                1e-9);
}

TEST(OptimalTdiskTest, MatchesGoldenSectionSearch) {
  const std::int64_t n = 150;
  const BytesPerSecond b = 1 * kMBps;
  auto params = BufferParams(n, 1);
  auto best = OptimalTdiskPerByte(n, b, params, Prices());
  ASSERT_TRUE(best.ok());

  auto range = FeasibleTdiskRange(n, b, params);
  ASSERT_TRUE(range.ok());
  auto numeric = GoldenSectionMinimize(
      [&](double t) {
        auto sizing = SolveMemsBuffer(n, b, params, t);
        return CostWithMemsBufferPerByte(n, sizing.value().mems_used,
                                         sizing.value().s_mems_dram,
                                         Prices());
      },
      range.value().lower, range.value().lower * 1000, {1e-6, 300});
  ASSERT_TRUE(numeric.ok());
  EXPECT_NEAR(best.value().t_disk / numeric.value(), 1.0, 1e-3);
}

TEST(OptimalTdiskTest, SavesMoneyOverDirectForLowBitRate) {
  // Fig. 8's shape: large savings for mp3, small for HDTV.
  const CostInputs prices = Prices();
  auto savings_at = [&](BytesPerSecond b, std::int64_t n) -> Dollars {
    DeviceProfile disk;
    disk.rate = 300 * kMBps;
    disk.latency = FutureDiskLatency()(n);
    auto direct = TotalBufferSize(n, b, disk);
    EXPECT_TRUE(direct.ok());
    const Dollars without = direct.value() * prices.dram_per_byte;
    auto best = OptimalTdiskPerByte(n, b, BufferParams(n), prices);
    EXPECT_TRUE(best.ok());
    return without - best.value().total_cost;
  };
  const Dollars mp3 = savings_at(10 * kKBps, 20000);
  const Dollars hdtv = savings_at(10 * kMBps, 25);
  EXPECT_GT(mp3, 0);
  EXPECT_GT(hdtv, 0);
  EXPECT_GT(mp3, 50 * hdtv);  // orders of magnitude apart in the figure
}

// --- MaxCacheSystemThroughput -----------------------------------------------

CacheSystemConfig PaperCacheConfig(std::int64_t k, Popularity pop,
                                   BytesPerSecond bit_rate,
                                   Dollars budget) {
  CacheSystemConfig config;
  config.total_budget = budget;
  config.dram_per_byte = 20.0 / kGB;
  config.mems_device_cost = 10;
  config.k = k;
  config.policy = CachePolicy::kStriped;
  config.popularity = pop;
  config.mems_capacity = 10 * kGB;
  config.content_size = 1000 * kGB;  // 1 device caches 1% (Fig. 10)
  config.bit_rate = bit_rate;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = FutureDiskLatency();
  config.mems = G3Profile();
  return config;
}

TEST(CacheSystemTest, NoCacheBaselineMatchesTheorem1Budget) {
  auto config = PaperCacheConfig(0, {0.5, 0.5}, 10 * kKBps, 100);
  auto result = MaxCacheSystemThroughput(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().cache_streams, 0);
  EXPECT_GT(result.value().total_streams, 1000);
  EXPECT_LE(result.value().dram_used, result.value().dram_bytes);
  // $100 of DRAM at $20/GB.
  EXPECT_DOUBLE_EQ(result.value().dram_bytes, 5 * kGB);
}

TEST(CacheSystemTest, SkewedPopularityBeatsNoCache) {
  // §5.2.1: for 1:99 the cache wins decisively at 10 KB/s.
  auto without = MaxCacheSystemThroughput(
      PaperCacheConfig(0, {0.01, 0.99}, 10 * kKBps, 100));
  auto with_cache = MaxCacheSystemThroughput(
      PaperCacheConfig(2, {0.01, 0.99}, 10 * kKBps, 100));
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with_cache.ok());
  EXPECT_GT(with_cache.value().total_streams,
            without.value().total_streams);
  EXPECT_GT(with_cache.value().hit_rate, 0.9);
}

TEST(CacheSystemTest, UniformPopularityCacheHurts) {
  // §5.2.4: at 50:50 the MEMS cache always degrades performance.
  auto without = MaxCacheSystemThroughput(
      PaperCacheConfig(0, {0.5, 0.5}, 100 * kKBps, 100));
  auto with_cache = MaxCacheSystemThroughput(
      PaperCacheConfig(4, {0.5, 0.5}, 100 * kKBps, 100));
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with_cache.ok());
  EXPECT_LT(with_cache.value().total_streams,
            without.value().total_streams);
}

TEST(CacheSystemTest, ThroughputMonotoneInBudget) {
  std::int64_t prev = 0;
  for (Dollars budget : {50.0, 100.0, 200.0, 400.0}) {
    auto result = MaxCacheSystemThroughput(
        PaperCacheConfig(1, {0.05, 0.95}, 100 * kKBps, budget));
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result.value().total_streams, prev);
    prev = result.value().total_streams;
  }
}

TEST(CacheSystemTest, StreamSplitMatchesHitRate) {
  auto result = MaxCacheSystemThroughput(
      PaperCacheConfig(2, {0.05, 0.95}, 100 * kKBps, 200));
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  EXPECT_EQ(r.cache_streams + r.disk_streams, r.total_streams);
  EXPECT_NEAR(static_cast<double>(r.cache_streams) /
                  static_cast<double>(r.total_streams),
              r.hit_rate, 0.01);
}

TEST(CacheSystemTest, BudgetTooSmallForDevicesIsInfeasible) {
  auto result = MaxCacheSystemThroughput(
      PaperCacheConfig(20, {0.01, 0.99}, 10 * kKBps, 100));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(CacheSystemTest, RequiresLatencyFunction) {
  auto config = PaperCacheConfig(1, {0.1, 0.9}, 1 * kMBps, 100);
  config.disk_latency = nullptr;
  EXPECT_FALSE(MaxCacheSystemThroughput(config).ok());
}

// --- BestCacheBankSize -------------------------------------------------------

TEST(BestBankSizeTest, UniformPopularityPrefersNoCache) {
  auto best = BestCacheBankSize(
      PaperCacheConfig(0, {0.5, 0.5}, 100 * kKBps, 100), 8);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value(), 0);
}

TEST(BestBankSizeTest, SkewedPopularityPrefersSomeCache) {
  auto best = BestCacheBankSize(
      PaperCacheConfig(0, {0.01, 0.99}, 100 * kKBps, 100), 8);
  ASSERT_TRUE(best.ok());
  EXPECT_GE(best.value(), 1);
}

TEST(BestBankSizeTest, OptimumIsActuallyBest) {
  auto config = PaperCacheConfig(0, {0.05, 0.95}, 100 * kKBps, 100);
  auto best = BestCacheBankSize(config, 8);
  ASSERT_TRUE(best.ok());
  config.k = best.value();
  auto best_streams = MaxCacheSystemThroughput(config);
  ASSERT_TRUE(best_streams.ok());
  for (std::int64_t k = 0; k <= 8; ++k) {
    config.k = k;
    auto result = MaxCacheSystemThroughput(config);
    if (!result.ok()) continue;
    EXPECT_LE(result.value().total_streams,
              best_streams.value().total_streams)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace memstream::model
