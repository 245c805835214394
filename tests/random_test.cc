#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

namespace memstream {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, DoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, IntWithinBoundsAndCoversRange) {
  Rng rng(3);
  std::map<std::int64_t, int> counts;
  for (int i = 0; i < 6000; ++i) {
    const auto v = rng.NextInt(10, 15);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 15);
    ++counts[v];
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 700) << "value " << value << " undersampled";
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(19);
  const double rate = 4.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(ZipfTest, UniformWhenExponentZero) {
  ZipfDistribution dist(10, 0.0);
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(dist.Pmf(k), 0.1, 1e-12);
  }
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution dist(100, 1.0);
  double sum = 0;
  for (std::size_t k = 1; k <= 100; ++k) sum += dist.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, MonotoneDecreasingPmf) {
  ZipfDistribution dist(50, 0.8);
  for (std::size_t k = 2; k <= 50; ++k) {
    EXPECT_LE(dist.Pmf(k), dist.Pmf(k - 1) + 1e-15);
  }
}

TEST(ZipfTest, SampleFrequenciesMatchPmf) {
  ZipfDistribution dist(20, 1.0);
  Rng rng(29);
  std::vector<int> counts(21, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[dist.Sample(rng)];
  for (std::size_t k = 1; k <= 20; ++k) {
    const double expected = dist.Pmf(k) * n;
    EXPECT_NEAR(counts[k], expected, 5 * std::sqrt(expected) + 10)
        << "rank " << k;
  }
}

TEST(ZipfTest, SingleItemAlwaysSampled) {
  ZipfDistribution dist(1, 2.0);
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dist.Sample(rng), 1u);
}

/// The plain binary-search inversion the guide table must reproduce.
std::size_t ReferenceRank(const ZipfDistribution& dist, double u) {
  const std::vector<double>& cdf = dist.cdf();
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<std::size_t>(it - cdf.begin()) + 1;
}

TEST(ZipfTest, GuideTableMatchesLowerBound) {
  for (const std::size_t n : {1u, 2u, 7u, 2000u, 20000u}) {
    for (const double s : {0.0, 0.8, 1.2}) {
      const ZipfDistribution dist(n, s);
      ASSERT_EQ(dist.cdf().back(), 1.0);
      auto check = [&](double u) {
        ASSERT_EQ(dist.RankOf(u), ReferenceRank(dist, u))
            << "n=" << n << " s=" << s << " u=" << u;
      };
      // Edges: the ends of [0, 1) and every CDF step with both of its
      // floating-point neighbours, where a bucket boundary computed
      // with rounding could start the scan one entry too late.
      check(0.0);
      check(1.0 - 0x1.0p-53);
      for (const double c : dist.cdf()) {
        check(c);
        check(std::nextafter(c, 0.0));
        if (c < 1.0) check(std::nextafter(c, 1.0));
      }
      for (std::size_t j = 1; j < n; ++j) {
        const double edge = static_cast<double>(j) / static_cast<double>(n);
        check(edge);
        check(std::nextafter(edge, 0.0));
        check(std::nextafter(edge, 1.0));
      }
      // Seeded draws: Sample consumes the Rng exactly as one NextDouble.
      Rng rng(1000 + n), ref(1000 + n);
      for (int i = 0; i < 1000000; ++i) {
        const std::size_t got = dist.Sample(rng);
        const std::size_t want = ReferenceRank(dist, ref.NextDouble());
        if (got != want) {
          FAIL() << "n=" << n << " s=" << s << " draw " << i << ": " << got
                 << " vs " << want;
        }
      }
    }
  }
}

}  // namespace
}  // namespace memstream
