#include "device/disk.h"

#include <cmath>
#include <cstdlib>
#include <vector>

namespace memstream::device {

Result<DiskDrive> DiskDrive::Create(const DiskParameters& params) {
  if (params.rpm <= 0) return Status::InvalidArgument("rpm must be > 0");
  auto seek = SeekModel::Calibrate(params.track_to_track_seek,
                                   params.average_seek,
                                   params.full_stroke_seek,
                                   params.num_cylinders);
  MEMSTREAM_RETURN_IF_ERROR(seek.status());
  auto geometry =
      DiskGeometry::Create(params.capacity, params.num_cylinders,
                           params.num_zones, params.outer_rate,
                           params.inner_rate);
  MEMSTREAM_RETURN_IF_ERROR(geometry.status());
  return DiskDrive(params, seek.value(), std::move(geometry).value());
}

Seconds DiskDrive::MaxAccessLatency() const {
  return seek_model_.FullStrokeTime() + RotationPeriod();
}

Seconds DiskDrive::AverageAccessLatency() const {
  return seek_model_.AverageSeekTime() + 0.5 * RotationPeriod();
}

Result<Seconds> DiskDrive::Service(const IoSpan& io, Rng* rng) {
  if (io.bytes < 0) return Status::InvalidArgument("negative IO size");
  const auto offset = static_cast<Bytes>(io.offset);
  const Bytes end = offset + io.bytes;
  if (io.offset < 0 || offset >= params_.capacity ||
      end > params_.capacity) {
    return Status::OutOfRange("IO beyond disk capacity");
  }
  // One zone lookup gives the start cylinder and the transfer rate.
  const std::vector<Zone>& zones = geometry_.zones();
  const std::size_t z = geometry_.ZoneIndexOf(offset);
  const Zone& zone = zones[z];

  const Seconds seek = seek_model_.SeekTime(
      std::llabs(zone.CylinderOf(offset) - current_cylinder_));
  const Seconds rotation = rng == nullptr
                               ? 0.5 * RotationPeriod()
                               : rng->NextDouble() * RotationPeriod();
  // Transfer at the rate of the starting zone; IOs that straddle a zone
  // boundary are charged the starting zone's rate (the error is bounded by
  // one zone step and irrelevant at the paper's modeling granularity).
  const Seconds transfer = io.bytes / zone.transfer_rate;

  // The head stops at the end offset's cylinder. That offset normally
  // lies in the start zone; only a zone-straddling IO searches again.
  const Bytes end_at = end >= params_.capacity ? params_.capacity - 1 : end;
  const Zone* end_zone = &zone;
  if (end_at < zone.start_offset ||
      (z + 1 < zones.size() && end_at >= zones[z + 1].start_offset)) {
    auto found = geometry_.ZoneAt(end_at);
    MEMSTREAM_RETURN_IF_ERROR(found.status());
    end_zone = found.value();
  }
  current_cylinder_ = end_zone->CylinderOf(end_at);

  const Seconds service = seek + rotation + transfer;
  AccountService(service, io.bytes);
  return service;
}

Result<Seconds> DiskDrive::SchedulerDeterminedLatency(std::int64_t n) const {
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  // n uniform points split the cylinder span into n+1 gaps of expected
  // width C/(n+1); a C-LOOK sweep pays one gap seek per request plus one
  // full sweep-back per cycle, amortized over the n requests (without
  // the amortized term the estimate is optimistic and simulated cycles
  // overrun their analytic length).
  const auto gap = static_cast<std::int64_t>(
      std::llround(static_cast<double>(params_.num_cylinders) /
                   static_cast<double>(n + 1)));
  const Seconds gap_seek =
      seek_model_.SeekTime(std::max<std::int64_t>(gap, 1));
  const Seconds wrap =
      (seek_model_.FullStrokeTime() - gap_seek) / static_cast<double>(n);
  return gap_seek + wrap + 0.5 * RotationPeriod();
}

}  // namespace memstream::device
