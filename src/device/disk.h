// Disk-drive model: calibrated seek curve + rotational latency + zoned
// transfer rates. Reproduces the paper's "FutureDisk" (Table 3) as well as
// the 2002 disk of Table 1 (presets live in device_catalog.h).

#ifndef MEMSTREAM_DEVICE_DISK_H_
#define MEMSTREAM_DEVICE_DISK_H_

#include <cstdint>
#include <string>

#include "device/device.h"
#include "device/disk_geometry.h"
#include "device/seek_model.h"

namespace memstream::device {

/// Datasheet-level description of a disk drive.
struct DiskParameters {
  std::string name = "disk";
  double rpm = 10000;
  BytesPerSecond outer_rate = 55 * kMBps;  ///< max (outer-zone) media rate
  BytesPerSecond inner_rate = 30 * kMBps;  ///< min (inner-zone) media rate
  Bytes capacity = 100 * kGB;
  Seconds track_to_track_seek = 0.3 * kMillisecond;
  Seconds average_seek = 4.5 * kMillisecond;
  Seconds full_stroke_seek = 10 * kMillisecond;
  std::int64_t num_cylinders = 50000;
  std::int64_t num_zones = 16;
};

/// Mechanical disk model. See DiskParameters for the knobs.
class DiskDrive final : public BlockDevice {
 public:
  /// Validates the parameters, calibrates the seek curve, and builds the
  /// zone table.
  static Result<DiskDrive> Create(const DiskParameters& params);

  std::string name() const override { return params_.name; }
  Bytes Capacity() const override { return params_.capacity; }
  BytesPerSecond MaxTransferRate() const override {
    return params_.outer_rate;
  }

  /// Full-stroke seek + one full rotation.
  Seconds MaxAccessLatency() const override;

  /// Average seek + half a rotation — the "disk (avg. latency)" curve of
  /// Fig. 2 uses exactly this quantity.
  Seconds AverageAccessLatency() const override;

  /// Seek from the current cylinder, rotational delay (sampled uniformly
  /// over a rotation when `rng` is provided, expected value otherwise),
  /// then a zoned-rate transfer.
  Result<Seconds> Service(const IoSpan& io, Rng* rng) override;

  void Reset() override { current_cylinder_ = 0; }

  /// Expected per-IO latency when an elevator (C-LOOK) scheduler services a
  /// batch of `n` concurrent requests at uniformly random positions: the
  /// sweep visits them in position order, so the expected seek distance
  /// between consecutive requests is num_cylinders/(n+1); rotational
  /// delay is still half a rotation. This is the paper's
  /// "scheduler-determined latency" L̄_disk (§5).
  Result<Seconds> SchedulerDeterminedLatency(std::int64_t n) const;

  Seconds RotationPeriod() const { return 60.0 / params_.rpm; }

  const DiskParameters& parameters() const { return params_; }
  const SeekModel& seek_model() const { return seek_model_; }
  const DiskGeometry& geometry() const { return geometry_; }
  std::int64_t current_cylinder() const { return current_cylinder_; }

 private:
  DiskDrive(DiskParameters params, SeekModel seek_model,
            DiskGeometry geometry)
      : params_(std::move(params)),
        seek_model_(seek_model),
        geometry_(std::move(geometry)) {}

  DiskParameters params_;
  SeekModel seek_model_;
  DiskGeometry geometry_;
  std::int64_t current_cylinder_ = 0;
};

}  // namespace memstream::device

#endif  // MEMSTREAM_DEVICE_DISK_H_
