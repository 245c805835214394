#include "device/mems_device.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace memstream::device {

Result<MemsDevice> MemsDevice::Create(const MemsParameters& params) {
  if (params.transfer_rate <= 0) {
    return Status::InvalidArgument("transfer_rate must be > 0");
  }
  if (params.capacity <= 0) {
    return Status::InvalidArgument("capacity must be > 0");
  }
  if (params.num_regions < 1) {
    return Status::InvalidArgument("num_regions must be >= 1");
  }
  if (params.x_full_stroke < 0 || params.x_settle < 0 ||
      params.y_full_stroke < 0) {
    return Status::InvalidArgument("positioning times must be >= 0");
  }
  return MemsDevice(params);
}

Seconds MemsDevice::MaxAccessLatency() const {
  return params_.x_full_stroke + params_.x_settle + params_.y_full_stroke;
}

Seconds MemsDevice::AverageAccessLatency() const {
  constexpr double kMeanSqrt = 8.0 / 15.0;  // E[sqrt(|x-y|)], x,y ~ U[0,1]
  return kMeanSqrt * (params_.x_full_stroke + params_.y_full_stroke) +
         params_.x_settle;
}

Seconds MemsDevice::SeekTime(std::int64_t from_region, double from_y,
                             std::int64_t to_region, double to_y) const {
  const double dx =
      params_.num_regions <= 1
          ? 0.0
          : static_cast<double>(std::llabs(to_region - from_region)) /
                static_cast<double>(params_.num_regions - 1);
  const double dy = std::fabs(to_y - from_y);
  if (dx == 0.0 && dy == 0.0) return 0.0;
  const Seconds x_time =
      dx > 0.0 ? params_.x_full_stroke * std::sqrt(dx) + params_.x_settle
               : 0.0;
  const Seconds y_time = params_.y_full_stroke * std::sqrt(dy);
  return x_time + y_time;
}

MemsDevice::SledPosition MemsDevice::PositionOf(Bytes offset) const {
  auto region = static_cast<std::int64_t>(offset / region_capacity_);
  region = std::min(region, params_.num_regions - 1);
  const double y_frac = std::clamp(
      (offset - static_cast<double>(region) * region_capacity_) /
          region_capacity_,
      0.0, 1.0);
  return SledPosition{region, y_frac};
}

MemsDevice::SledPosition MemsDevice::Advance(SledPosition start,
                                             Bytes bytes) const {
  // The sled advances along Y by the transferred fraction; transfers that
  // exceed a region wrap into subsequent regions (landing in the last).
  const double total_y = start.y + bytes / region_capacity_;
  const auto regions_advanced = static_cast<std::int64_t>(total_y);
  SledPosition end;
  end.region =
      std::min(start.region + regions_advanced, params_.num_regions - 1);
  end.y = total_y - static_cast<double>(regions_advanced);
  return end;
}

Result<Seconds> MemsDevice::Service(const IoSpan& io, Rng* /*rng*/) {
  if (failed_) return Status::Unavailable(name() + " is failed");
  if (io.bytes < 0) return Status::InvalidArgument("negative IO size");
  const auto offset = static_cast<Bytes>(io.offset);
  if (io.offset < 0 || offset >= params_.capacity ||
      offset + io.bytes > params_.capacity) {
    return Status::OutOfRange("IO beyond MEMS capacity");
  }
  // One position lookup: the end position derives from the start.
  const SledPosition start = PositionOf(offset);
  const SledPosition end = Advance(start, io.bytes);

  const Seconds seek =
      SeekTime(current_region_, current_y_, start.region, start.y);
  const Seconds transfer = io.bytes / params_.transfer_rate;
  current_region_ = end.region;
  current_y_ = end.y;
  const Seconds service = seek + transfer;
  AccountService(service, io.bytes);
  return service;
}

void MemsDevice::Reset() {
  current_region_ = 0;
  current_y_ = 0.0;
}

}  // namespace memstream::device
