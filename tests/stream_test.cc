#include "model/stream.h"

#include <gtest/gtest.h>

namespace memstream::model {
namespace {

TEST(StreamClassTest, PaperBitRates) {
  EXPECT_DOUBLE_EQ(Mp3().bit_rate, 10 * kKBps);
  EXPECT_DOUBLE_EQ(DivX().bit_rate, 100 * kKBps);
  EXPECT_DOUBLE_EQ(Dvd().bit_rate, 1 * kMBps);
  EXPECT_DOUBLE_EQ(Hdtv().bit_rate, 10 * kMBps);
}

TEST(StreamClassTest, PaperClassesOrderedByRate) {
  const auto classes = PaperStreamClasses();
  ASSERT_EQ(classes.size(), 4u);
  for (std::size_t i = 1; i < classes.size(); ++i) {
    EXPECT_GT(classes[i].bit_rate, classes[i - 1].bit_rate);
    // Each class is 10x the previous (the paper's log-spaced sweep).
    EXPECT_DOUBLE_EQ(classes[i].bit_rate / classes[i - 1].bit_rate, 10.0);
  }
}

}  // namespace
}  // namespace memstream::model
