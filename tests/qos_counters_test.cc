// The shared QosCounters struct replaced four copy-pasted report fields;
// these tests pin its farm/facade merging and the auditor slot. Folding a
// stream's tallies in, and the pause semantics degradation relies on,
// are tested with the batches in stream_batch_test.

#include "server/qos_counters.h"

#include <gtest/gtest.h>

namespace memstream::server {
namespace {

TEST(QosCountersTest, MergeAggregatesEveryField) {
  QosCounters a;
  a.underflow_events = 1;
  a.underflow_time = 0.5;
  a.violations = 2;
  QosCounters b;
  b.underflow_events = 2;
  b.underflow_time = 1.5;
  b.overflow_events = 1;
  b.overflow_time = 0.25;
  b.violations = 3;
  a.Merge(b);
  EXPECT_EQ(a.underflow_events, 3);
  EXPECT_DOUBLE_EQ(a.underflow_time, 2.0);
  EXPECT_EQ(a.overflow_events, 1);
  EXPECT_DOUBLE_EQ(a.overflow_time, 0.25);
  EXPECT_EQ(a.violations, 5);
}

TEST(QosCountersTest, CleanRequiresZeroEverywhere) {
  QosCounters qos;
  EXPECT_TRUE(qos.clean());
  qos.violations = 1;
  EXPECT_FALSE(qos.clean());
  qos.violations = 0;
  qos.overflow_events = 1;
  EXPECT_FALSE(qos.clean());
}

}  // namespace
}  // namespace memstream::server
