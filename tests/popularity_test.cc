#include "workload/popularity.h"

#include <gtest/gtest.h>

namespace memstream::workload {
namespace {

TEST(TwoClassTest, PopularTitlesGetYFractionOfMass) {
  auto sampler = TwoClassSampler::Create({0.1, 0.9}, 1000);
  ASSERT_TRUE(sampler.ok());
  EXPECT_EQ(sampler.value().num_popular(), 100);
  Rng rng(5);
  std::int64_t popular_hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (sampler.value().Sample(rng) < 100) ++popular_hits;
  }
  EXPECT_NEAR(static_cast<double>(popular_hits) / n, 0.9, 0.005);
}

TEST(TwoClassTest, UniformWithinClasses) {
  // 2 popular titles share 80 % of the draws, 8 others share 20 %.
  auto sampler = TwoClassSampler::Create({0.2, 0.8}, 10);
  ASSERT_TRUE(sampler.ok());
  Rng rng(11);
  std::vector<double> share(10, 0.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    share[static_cast<std::size_t>(sampler.value().Sample(rng))] += 1.0 / n;
  }
  EXPECT_NEAR(share[0], 0.4, 0.01);
  EXPECT_NEAR(share[1], 0.4, 0.01);
  for (std::size_t t = 2; t < 10; ++t) EXPECT_NEAR(share[t], 0.025, 0.003);
}

TEST(TwoClassTest, SampleFrequenciesMatchPmf) {
  auto sampler = TwoClassSampler::Create({0.01, 0.99}, 100);
  ASSERT_TRUE(sampler.ok());
  Rng rng(13);
  std::int64_t popular_hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (sampler.value().Sample(rng) < sampler.value().num_popular()) {
      ++popular_hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(popular_hits) / n, 0.99, 0.005);
}

TEST(TwoClassTest, UniformDistributionSamplesEverywhere) {
  auto sampler = TwoClassSampler::Create({0.5, 0.5}, 10);
  ASSERT_TRUE(sampler.ok());
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<std::size_t>(sampler.value().Sample(rng))];
  }
  for (int c : counts) EXPECT_GT(c, 1500);
}

TEST(TwoClassTest, InvalidPopularityRejected) {
  EXPECT_FALSE(TwoClassSampler::Create({0.0, 0.9}, 100).ok());
  EXPECT_FALSE(TwoClassSampler::Create({0.9, 0.5}, 100).ok());
  EXPECT_FALSE(TwoClassSampler::Create({0.1, 0.9}, 0).ok());
}

TEST(ZipfSamplerTest, RankZeroMostPopular) {
  auto sampler = ZipfSampler::Create(100, 1.0);
  ASSERT_TRUE(sampler.ok());
  EXPECT_GT(sampler.value().Pmf(0), sampler.value().Pmf(1));
  EXPECT_GT(sampler.value().Pmf(1), sampler.value().Pmf(99));
}

TEST(ZipfSamplerTest, SamplesInRange) {
  auto sampler = ZipfSampler::Create(50, 0.9);
  ASSERT_TRUE(sampler.ok());
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto t = sampler.value().Sample(rng);
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 50);
  }
}

TEST(FitTwoClassTest, RecoversExactTwoClassDistribution) {
  // Build a literal 10:90 pmf over 100 titles and fit it back.
  std::vector<double> pmf;
  for (int i = 0; i < 10; ++i) pmf.push_back(0.9 / 10);
  for (int i = 0; i < 90; ++i) pmf.push_back(0.1 / 90);
  auto fitted = FitTwoClass(pmf, 0.1);
  ASSERT_TRUE(fitted.ok());
  EXPECT_NEAR(fitted.value().x, 0.1, 1e-12);
  EXPECT_NEAR(fitted.value().y, 0.9, 1e-12);
}

TEST(FitTwoClassTest, ZipfHeadCapturesMoreThanUniform) {
  auto sampler = ZipfSampler::Create(1000, 1.0);
  ASSERT_TRUE(sampler.ok());
  std::vector<double> pmf;
  for (std::int64_t t = 0; t < 1000; ++t) {
    pmf.push_back(sampler.value().Pmf(t));
  }
  auto fitted = FitTwoClass(pmf, 0.1);
  ASSERT_TRUE(fitted.ok());
  EXPECT_GT(fitted.value().y, 0.5);  // Zipf(1): top 10% >> 10% of mass
  EXPECT_TRUE(model::IsValidPopularity(fitted.value()));
}

TEST(FitZipfTwoClassTest, HitRatePredictsSampledTrace) {
  // End-to-end: a Zipf(1.0) catalog, a cache holding 5% of the titles.
  // Eq. 11 with the fitted X:Y must predict the sampled hit rate.
  const std::int64_t titles = 1000;
  const double cached = 0.05;
  auto fitted = FitZipfTwoClass(titles, 1.0, cached);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  auto analytic = model::HitRate(fitted.value(), cached);
  ASSERT_TRUE(analytic.ok());

  auto sampler = ZipfSampler::Create(titles, 1.0);
  ASSERT_TRUE(sampler.ok());
  Rng rng(41);
  std::int64_t hits = 0;
  const int n = 200000;
  const auto resident = static_cast<std::int64_t>(cached * titles);
  for (int i = 0; i < n; ++i) {
    if (sampler.value().Sample(rng) < resident) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, analytic.value(), 0.01);
}

TEST(FitZipfTwoClassTest, InvalidInputsRejected) {
  EXPECT_FALSE(FitZipfTwoClass(0, 1.0, 0.1).ok());
  EXPECT_FALSE(FitZipfTwoClass(100, -1.0, 0.1).ok());
  EXPECT_FALSE(FitZipfTwoClass(100, 1.0, 0.0).ok());
}

TEST(FitTwoClassTest, InvalidInputsRejected) {
  EXPECT_FALSE(FitTwoClass({}, 0.1).ok());
  EXPECT_FALSE(FitTwoClass({0.5, 0.5}, 0.0).ok());
  EXPECT_FALSE(FitTwoClass({0.0, 0.0}, 0.5).ok());
}

}  // namespace
}  // namespace memstream::workload
