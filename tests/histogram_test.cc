#include "common/histogram.h"

#include <gtest/gtest.h>

namespace memstream {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0);
  EXPECT_EQ(s.sum(), 0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(HistogramTest, CountsFallInRightBuckets) {
  Histogram h(0, 10, 10);
  h.Add(0.5);
  h.Add(1.5);
  h.Add(9.5);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(9), 1);
  EXPECT_EQ(h.TotalCount(), 3);
}

TEST(HistogramTest, OutOfRangeSaturates) {
  Histogram h(0, 10, 5);
  h.Add(-100);
  h.Add(+100);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(4), 1);
  EXPECT_EQ(h.TotalCount(), 2);
}

TEST(HistogramTest, QuantilesOfUniformFill) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.Add(i + 0.5);
  EXPECT_NEAR(h.Quantile(0.5), 50, 1.5);
  EXPECT_NEAR(h.Quantile(0.9), 90, 1.5);
  EXPECT_NEAR(h.Quantile(1.0), 100, 1.5);
}

// Percentile edge cases (regression tests for the quantile audit): the
// empty, single-sample, and all-equal distributions must return exact,
// well-defined values — bucket interpolation alone used to report p95 of
// {5,5,5} past 5.

TEST(HistogramTest, EmptyQuantileIsTheRangeLow) {
  Histogram h(2, 10, 8);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(HistogramTest, SingleSampleQuantilesAreTheSample) {
  Histogram h(0, 10, 10);
  h.Add(3.7);
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 3.7) << "q=" << q;
  }
}

TEST(HistogramTest, AllEqualSamplesQuantilesAreExact) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 3; ++i) h.Add(5.0);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 5.0) << "q=" << q;
  }
}

TEST(HistogramTest, SaturatedSampleQuantileReturnsTrueValue) {
  // An out-of-range sample lands in the edge bucket, but quantiles clamp
  // to the observed sample range — not the bucket boundary.
  Histogram h(0, 10, 5);
  h.Add(-100);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), -100.0);
  Histogram hi(0, 10, 5);
  hi.Add(+100);
  EXPECT_DOUBLE_EQ(hi.Quantile(0.5), 100.0);
}

TEST(HistogramTest, QuantilesNeverExceedObservedRange) {
  Histogram h(0, 100, 4);  // coarse buckets force interpolation
  h.Add(10);
  h.Add(11);
  h.Add(97);
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_GE(h.Quantile(q), 10.0) << "q=" << q;
    EXPECT_LE(h.Quantile(q), 97.0) << "q=" << q;
  }
}

TEST(TimeWeightedTest, ConstantSignal) {
  TimeWeightedStats s;
  s.Update(0, 5);
  s.Update(10, 5);
  EXPECT_DOUBLE_EQ(s.TimeAverage(), 5.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 5.0);
}

TEST(TimeWeightedTest, StepSignal) {
  TimeWeightedStats s;
  s.Update(0, 0);   // 0 on [0, 4)
  s.Update(4, 10);  // 10 on [4, 8)
  s.Update(8, 0);
  EXPECT_DOUBLE_EQ(s.TimeAverage(), 5.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 10.0);
}

TEST(TimeWeightedTest, NoElapsedTimeReturnsLastValue) {
  TimeWeightedStats s;
  s.Update(3, 7);
  EXPECT_DOUBLE_EQ(s.TimeAverage(), 7.0);
}

}  // namespace
}  // namespace memstream
