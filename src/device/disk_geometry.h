// Zoned-bit-recording geometry: maps byte offsets to cylinders and zones,
// with per-zone media transfer rates interpolated between the outer
// (fastest) and inner (slowest) zones. Cylinder 0 is the outermost.

#ifndef MEMSTREAM_DEVICE_DISK_GEOMETRY_H_
#define MEMSTREAM_DEVICE_DISK_GEOMETRY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace memstream::device {

/// One recording zone: a contiguous cylinder range with a constant media
/// transfer rate. Capacity is distributed across zones proportionally to
/// their rate (more bits per track where the linear density allows it).
struct Zone {
  std::int64_t first_cylinder = 0;
  std::int64_t last_cylinder = 0;   ///< inclusive
  BytesPerSecond transfer_rate = 0;
  Bytes start_offset = 0;           ///< first byte of the zone
  Bytes capacity = 0;               ///< bytes held by the zone

  /// Cylinder holding `offset`, linear across the zone's cylinders and
  /// clamped to the last one. Meaningful for offsets inside the zone.
  std::int64_t CylinderOf(Bytes offset) const {
    const double frac = (offset - start_offset) / capacity;
    const auto span = last_cylinder - first_cylinder + 1;
    const auto cyl = first_cylinder +
                     static_cast<std::int64_t>(frac *
                                               static_cast<double>(span));
    return std::min(cyl, last_cylinder);
  }
};

/// Immutable geometry computed from capacity, cylinder count, zone count,
/// and the outer/inner transfer rates.
class DiskGeometry {
 public:
  /// Builds the zone table. Requires capacity > 0, num_cylinders >=
  /// num_zones >= 1, and outer_rate >= inner_rate > 0.
  static Result<DiskGeometry> Create(Bytes capacity,
                                     std::int64_t num_cylinders,
                                     std::int64_t num_zones,
                                     BytesPerSecond outer_rate,
                                     BytesPerSecond inner_rate);

  Bytes capacity() const { return capacity_; }
  std::int64_t num_cylinders() const { return num_cylinders_; }
  const std::vector<Zone>& zones() const { return zones_; }

  /// Zone containing the byte offset; OutOfRange beyond capacity.
  Result<const Zone*> ZoneAt(Bytes offset) const;

 private:
  friend class DiskDrive;  // services IOs through ZoneIndexOf

  DiskGeometry() = default;

  /// Index of the last zone starting at or before `offset`, which must
  /// lie in [0, capacity): the lookup behind ZoneAt, without its check.
  std::size_t ZoneIndexOf(Bytes offset) const;

  Bytes capacity_ = 0;
  std::int64_t num_cylinders_ = 0;
  std::vector<Zone> zones_;
};

}  // namespace memstream::device

#endif  // MEMSTREAM_DEVICE_DISK_GEOMETRY_H_
