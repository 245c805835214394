#include "workload/catalog.h"

#include <gtest/gtest.h>

namespace memstream::workload {
namespace {

TEST(CatalogTest, UniformTitlesContiguousLayout) {
  auto catalog = Catalog::Uniform(10, 1 * kMBps, 7200);  // 2-hour movies
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog.value().size(), 10);
  const Bytes movie = 7200 * kMB;
  EXPECT_DOUBLE_EQ(catalog.value().TotalSize(), 10 * movie);
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(catalog.value().title(i).disk_offset,
                     static_cast<double>(i) * movie);
    EXPECT_DOUBLE_EQ(catalog.value().title(i).size, movie);
  }
}

TEST(CatalogTest, SelectCacheResidentsGreedyPrefix) {
  auto catalog = Catalog::Uniform(10, 1 * kMBps, 1000);  // 1 GB each
  ASSERT_TRUE(catalog.ok());
  // 3.5 GB of cache fits exactly the three most popular titles.
  const auto residents = catalog.value().SelectCacheResidents(3.5 * kGB);
  EXPECT_EQ(residents, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(CatalogTest, SelectCacheResidentsEmptyWhenTooSmall) {
  auto catalog = Catalog::Uniform(5, 1 * kMBps, 1000);
  ASSERT_TRUE(catalog.ok());
  EXPECT_TRUE(catalog.value().SelectCacheResidents(0.5 * kGB).empty());
}

TEST(CatalogTest, SelectCacheResidentsAllWhenHuge) {
  auto catalog = Catalog::Uniform(5, 1 * kMBps, 1000);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog.value().SelectCacheResidents(100 * kGB).size(), 5u);
}

TEST(CatalogTest, InvalidSpecsRejected) {
  EXPECT_FALSE(Catalog::Uniform(0, 1 * kMBps, 100).ok());
  EXPECT_FALSE(Catalog::Uniform(5, 0, 100).ok());
  EXPECT_FALSE(Catalog::Uniform(5, 1 * kMBps, 0).ok());
}

}  // namespace
}  // namespace memstream::workload
