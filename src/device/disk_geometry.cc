#include "device/disk_geometry.h"

#include <algorithm>

namespace memstream::device {

Result<DiskGeometry> DiskGeometry::Create(Bytes capacity,
                                          std::int64_t num_cylinders,
                                          std::int64_t num_zones,
                                          BytesPerSecond outer_rate,
                                          BytesPerSecond inner_rate) {
  if (capacity <= 0) return Status::InvalidArgument("capacity must be > 0");
  if (num_zones < 1 || num_cylinders < num_zones) {
    return Status::InvalidArgument("need num_cylinders >= num_zones >= 1");
  }
  if (!(outer_rate >= inner_rate && inner_rate > 0)) {
    return Status::InvalidArgument("need outer_rate >= inner_rate > 0");
  }

  DiskGeometry geo;
  geo.capacity_ = capacity;
  geo.num_cylinders_ = num_cylinders;
  geo.zones_.resize(static_cast<std::size_t>(num_zones));

  // Cylinders are split evenly across zones; zone rates interpolate from
  // outer to inner; zone capacities are proportional to rate * cylinders.
  double weight_sum = 0.0;
  for (std::int64_t z = 0; z < num_zones; ++z) {
    Zone& zone = geo.zones_[static_cast<std::size_t>(z)];
    zone.first_cylinder = num_cylinders * z / num_zones;
    zone.last_cylinder = num_cylinders * (z + 1) / num_zones - 1;
    const double frac =
        num_zones == 1
            ? 0.0
            : static_cast<double>(z) / static_cast<double>(num_zones - 1);
    zone.transfer_rate = outer_rate - (outer_rate - inner_rate) * frac;
    weight_sum += zone.transfer_rate *
                  static_cast<double>(zone.last_cylinder -
                                      zone.first_cylinder + 1);
  }
  Bytes offset = 0;
  for (auto& zone : geo.zones_) {
    const double weight =
        zone.transfer_rate * static_cast<double>(zone.last_cylinder -
                                                 zone.first_cylinder + 1);
    zone.start_offset = offset;
    zone.capacity = capacity * weight / weight_sum;
    offset += zone.capacity;
  }
  // Absorb floating-point remainder into the last zone so the zone table
  // covers exactly [0, capacity).
  geo.zones_.back().capacity += capacity - offset;
  return geo;
}

std::size_t DiskGeometry::ZoneIndexOf(Bytes offset) const {
  auto it = std::upper_bound(
      zones_.begin(), zones_.end(), offset,
      [](Bytes off, const Zone& z) { return off < z.start_offset; });
  // upper_bound returns the first zone starting after `offset`; step back.
  return static_cast<std::size_t>(it - zones_.begin()) - 1;
}

Result<const Zone*> DiskGeometry::ZoneAt(Bytes offset) const {
  if (offset < 0 || offset >= capacity_) {
    return Status::OutOfRange("offset beyond disk capacity");
  }
  return &zones_[ZoneIndexOf(offset)];
}

}  // namespace memstream::device
