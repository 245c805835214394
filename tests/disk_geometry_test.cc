#include "device/disk_geometry.h"

#include <gtest/gtest.h>

namespace memstream::device {
namespace {

DiskGeometry Simple() {
  auto geo = DiskGeometry::Create(1000 * kGB, 100000, 16, 300 * kMBps,
                                  170 * kMBps);
  EXPECT_TRUE(geo.ok());
  return std::move(geo).value();
}

TEST(DiskGeometryTest, ZonesCoverAllCylinders) {
  DiskGeometry geo = Simple();
  ASSERT_EQ(geo.zones().size(), 16u);
  EXPECT_EQ(geo.zones().front().first_cylinder, 0);
  EXPECT_EQ(geo.zones().back().last_cylinder, 99999);
  for (std::size_t z = 1; z < geo.zones().size(); ++z) {
    EXPECT_EQ(geo.zones()[z].first_cylinder,
              geo.zones()[z - 1].last_cylinder + 1);
  }
}

TEST(DiskGeometryTest, CapacitySumsExactly) {
  DiskGeometry geo = Simple();
  Bytes total = 0;
  for (const auto& z : geo.zones()) total += z.capacity;
  EXPECT_DOUBLE_EQ(total, 1000 * kGB);
}

TEST(DiskGeometryTest, OuterZoneIsFastestAndLargest) {
  DiskGeometry geo = Simple();
  const auto& outer = geo.zones().front();
  const auto& inner = geo.zones().back();
  EXPECT_DOUBLE_EQ(outer.transfer_rate, 300 * kMBps);
  EXPECT_DOUBLE_EQ(inner.transfer_rate, 170 * kMBps);
  EXPECT_GT(outer.capacity, inner.capacity);
}

TEST(DiskGeometryTest, RateAtOffsetMatchesZone) {
  DiskGeometry geo = Simple();
  auto outer = geo.ZoneAt(0);
  ASSERT_TRUE(outer.ok());
  EXPECT_DOUBLE_EQ(outer.value()->transfer_rate, 300 * kMBps);
  auto inner = geo.ZoneAt(1000 * kGB - 1);
  ASSERT_TRUE(inner.ok());
  EXPECT_DOUBLE_EQ(inner.value()->transfer_rate, 170 * kMBps);
}

TEST(DiskGeometryTest, CylinderMonotoneInOffset) {
  DiskGeometry geo = Simple();
  std::int64_t prev = -1;
  for (Bytes off = 0; off < 1000 * kGB; off += 37 * kGB) {
    auto zone = geo.ZoneAt(off);
    ASSERT_TRUE(zone.ok());
    const std::int64_t cyl = zone.value()->CylinderOf(off);
    EXPECT_GE(cyl, prev);
    EXPECT_LT(cyl, 100000);
    prev = cyl;
  }
}

TEST(DiskGeometryTest, OutOfRangeOffsetRejected) {
  DiskGeometry geo = Simple();
  EXPECT_FALSE(geo.ZoneAt(-1).ok());
  EXPECT_FALSE(geo.ZoneAt(1000 * kGB).ok());
  EXPECT_EQ(geo.ZoneAt(1000 * kGB).status().code(), StatusCode::kOutOfRange);
}

TEST(DiskGeometryTest, SingleZoneUniform) {
  auto geo = DiskGeometry::Create(10 * kGB, 100, 1, 50 * kMBps, 50 * kMBps);
  ASSERT_TRUE(geo.ok());
  EXPECT_EQ(geo.value().zones().size(), 1u);
  EXPECT_DOUBLE_EQ(geo.value().zones()[0].capacity, 10 * kGB);
}

TEST(DiskGeometryTest, InvalidArgumentsRejected) {
  EXPECT_FALSE(DiskGeometry::Create(0, 100, 4, 2, 1).ok());
  EXPECT_FALSE(DiskGeometry::Create(1 * kGB, 2, 4, 2, 1).ok());
  EXPECT_FALSE(DiskGeometry::Create(1 * kGB, 100, 4, 1, 2).ok());
  EXPECT_FALSE(DiskGeometry::Create(1 * kGB, 100, 4, 2, 0).ok());
}

}  // namespace
}  // namespace memstream::device
