// Parameterized property sweeps over the analytical model: invariants
// that must hold across the whole (N, B̄, k, policy) space the paper
// explores, not just at hand-picked points.

#include <cmath>

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/mems_buffer.h"
#include "model/mems_cache.h"
#include "model/planner.h"
#include "model/timecycle.h"

namespace memstream::model {
namespace {

DeviceProfile G3Profile() {
  return MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
}

DeviceProfile FlatDisk() {
  DeviceProfile p;
  p.rate = 300 * kMBps;
  p.latency = 4.3 * kMillisecond;
  return p;
}

// --- Theorem 1 properties over (N, B̄) -------------------------------------

struct LoadPoint {
  std::int64_t n;
  double bit_rate;
};

class Theorem1Property : public ::testing::TestWithParam<LoadPoint> {};

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, Theorem1Property,
    ::testing::Values(LoadPoint{10, 10e3}, LoadPoint{100, 10e3},
                      LoadPoint{10000, 10e3}, LoadPoint{10, 100e3},
                      LoadPoint{1000, 100e3}, LoadPoint{10, 1e6},
                      LoadPoint{200, 1e6}, LoadPoint{5, 10e6},
                      LoadPoint{25, 10e6}),
    [](const auto& info) {
      return std::string("n")
          .append(std::to_string(info.param.n))
          .append("b")
          .append(std::to_string(
              static_cast<int>(info.param.bit_rate / 1000)));
    });

TEST_P(Theorem1Property, BufferCoversExactlyOneCycle) {
  const auto [n, b] = GetParam();
  auto s = PerStreamBufferSize(n, b, FlatDisk());
  ASSERT_TRUE(s.ok());
  // S = B * T and T = N (L + S/R): internal consistency.
  const double t = s.value() / b;
  EXPECT_NEAR(t, n * (FlatDisk().latency + s.value() / FlatDisk().rate),
              1e-9 * t);
  // More streams of the same kind never shrink the per-stream buffer.
  if (CanSustain(n + 1, b, FlatDisk())) {
    auto bigger = PerStreamBufferSize(n + 1, b, FlatDisk());
    ASSERT_TRUE(bigger.ok());
    EXPECT_GT(bigger.value(), s.value());
  }
}

TEST_P(Theorem1Property, BufferScalesWithLatency) {
  const auto [n, b] = GetParam();
  DeviceProfile fast = FlatDisk();
  fast.latency /= 5;  // the paper's latency-ratio knob
  auto slow_s = PerStreamBufferSize(n, b, FlatDisk());
  auto fast_s = PerStreamBufferSize(n, b, fast);
  ASSERT_TRUE(slow_s.ok());
  ASSERT_TRUE(fast_s.ok());
  // S is proportional to L̄ with everything else fixed.
  EXPECT_NEAR(slow_s.value() / fast_s.value(), 5.0, 1e-9);
}

// --- Theorem 2 properties over k --------------------------------------------

class Theorem2Property : public ::testing::TestWithParam<std::int64_t> {};

INSTANTIATE_TEST_SUITE_P(BankSweep, Theorem2Property,
                         ::testing::Range<std::int64_t>(1, 9));

TEST_P(Theorem2Property, MoreDevicesNeverHurt) {
  const std::int64_t k = GetParam();
  const std::int64_t n = 100;
  const BytesPerSecond b = 1 * kMBps;
  MemsBufferParams params;
  params.disk = FlatDisk();
  params.mems = G3Profile();
  params.k = k;
  auto sized_k = SolveMemsBuffer(n, b, params, 50.0);
  ASSERT_TRUE(sized_k.ok());
  params.k = k + 1;
  auto sized_k1 = SolveMemsBuffer(n, b, params, 50.0);
  ASSERT_TRUE(sized_k1.ok());
  // Adding a device never increases the DRAM requirement by more than
  // the imbalance correction (2/N), and usually decreases it.
  EXPECT_LT(sized_k1.value().s_mems_dram,
            sized_k.value().s_mems_dram * (1.0 + 2.0 / n + 1e-9));
}

TEST_P(Theorem2Property, SchedulableSizingDominatesPaperSizing) {
  const std::int64_t k = GetParam();
  MemsBufferParams params;
  params.disk = FlatDisk();
  params.mems = G3Profile();
  params.k = k;
  for (std::int64_t n : {10, 50, 150}) {
    for (Seconds t : {5.0, 20.0, 60.0}) {
      auto sized = SolveMemsBuffer(n, 1 * kMBps, params, t);
      if (!sized.ok()) continue;  // outside the feasible window
      EXPECT_GE(sized.value().s_mems_dram_schedulable,
                sized.value().s_mems_dram * (1 - 1e-9))
          << "n=" << n << " t=" << t;
      EXPECT_GE(sized.value().m, 1);
      EXPECT_LT(sized.value().m, n);
      EXPECT_LE(sized.value().t_mems_snapped, t + 1e-12);
    }
  }
}

// --- Cache properties over policy x k ---------------------------------------

struct CachePoint {
  CachePolicy policy;
  // gtest has no printer for CachePoint, so it writes the raw bytes of each
  // parameter into the test name. Naming the padding keeps it zero, so the
  // names are the same on every build instead of carrying stale bytes.
  std::int32_t padding = 0;
  std::int64_t k;
};
static_assert(sizeof(CachePoint) == 16);

class CacheProperty : public ::testing::TestWithParam<CachePoint> {};

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, CacheProperty,
    ::testing::Values(CachePoint{.policy = CachePolicy::kStriped, .k = 1},
                      CachePoint{.policy = CachePolicy::kStriped, .k = 2},
                      CachePoint{.policy = CachePolicy::kStriped, .k = 4},
                      CachePoint{.policy = CachePolicy::kStriped, .k = 8},
                      CachePoint{.policy = CachePolicy::kReplicated, .k = 1},
                      CachePoint{.policy = CachePolicy::kReplicated, .k = 2},
                      CachePoint{.policy = CachePolicy::kReplicated, .k = 4},
                      CachePoint{.policy = CachePolicy::kReplicated, .k = 8}),
    [](const auto& info) {
      return std::string(CachePolicyName(info.param.policy)) +
             std::to_string(info.param.k);
    });

TEST_P(CacheProperty, BufferMonotoneInN) {
  const auto [policy, padding, k] = GetParam();
  Bytes prev = 0;
  for (std::int64_t n = 10; n <= 200; n += 10) {
    auto s = CachePerStreamBuffer(n, 1 * kMBps, k, G3Profile(), policy);
    ASSERT_TRUE(s.ok());
    EXPECT_GT(s.value(), prev * 0.999);
    prev = s.value();
  }
}

TEST_P(CacheProperty, ReplicationNeverNeedsMoreThanStriping) {
  const auto [policy, padding, k] = GetParam();
  (void)policy;
  for (std::int64_t n : {20, 100, 300}) {
    auto striped =
        CachePerStreamBuffer(n, 1 * kMBps, k, G3Profile(),
                             CachePolicy::kStriped);
    auto replicated =
        CachePerStreamBuffer(n, 1 * kMBps, k, G3Profile(),
                             CachePolicy::kReplicated);
    if (!striped.ok() || !replicated.ok()) continue;
    EXPECT_LE(replicated.value(), striped.value() * (1 + 1e-9))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(CacheProperty, HitRateTimesStreamsNeverExceedsBandwidth) {
  const auto [policy, padding, k] = GetParam();
  const BytesPerSecond b = 1 * kMBps;
  const auto cap = MaxCacheStreamsBandwidthBound(b, k, 320 * kMBps, policy);
  EXPECT_TRUE(CacheCanSustain(cap, b, k, 320 * kMBps, policy));
  EXPECT_FALSE(CacheCanSustain(cap + 1, b, k, 320 * kMBps, policy));
}

// --- Eq. 11 x planner properties --------------------------------------------

class PopularityProperty : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(SkewSweep, PopularityProperty,
                         ::testing::Values(0.01, 0.05, 0.10, 0.20, 0.50),
                         [](const auto& info) {
                           return std::string("x").append(std::to_string(
                               static_cast<int>(info.param * 100)));
                         });

TEST_P(PopularityProperty, HitRateBoundsAndMonotonicity) {
  const double x = GetParam();
  const Popularity pop{x, 1.0 - x};
  if (!IsValidPopularity(pop)) GTEST_SKIP() << "uniform-or-worse skew";
  double prev = -1;
  for (double p = 0; p <= 1.0001; p += 0.05) {
    auto h = HitRate(pop, std::min(p, 1.0));
    ASSERT_TRUE(h.ok());
    EXPECT_GE(h.value(), prev - 1e-12);
    EXPECT_GE(h.value(), std::min(p, 1.0) - 1e-12)
        << "caching the most popular titles can never be worse than "
           "uniform";
    EXPECT_LE(h.value(), 1.0 + 1e-12);
    prev = h.value();
  }
}

TEST_P(PopularityProperty, MoreSkewMoreCacheValue) {
  // For fixed p, a more skewed distribution yields a higher hit rate.
  const double x = GetParam();
  const Popularity pop{x, 1.0 - x};
  if (!IsValidPopularity(pop) || x >= 0.5) {
    GTEST_SKIP() << "needs a strictly skewed distribution";
  }
  const Popularity milder{x * 2, 1.0 - x * 2};
  auto h_sharp = HitRate(pop, 0.01);
  auto h_mild = HitRate(milder, 0.01);
  ASSERT_TRUE(h_sharp.ok());
  ASSERT_TRUE(h_mild.ok());
  EXPECT_GE(h_sharp.value(), h_mild.value() - 1e-12);
}

}  // namespace
}  // namespace memstream::model
