// MEMS-based storage device model, after the CMU architecture (Carley et
// al., CACM 2000; Schlosser et al., ASPLOS 2000) that the paper adopts:
// a spring-mounted magnetic media sled positioned in X and Y over a fixed
// 2-D array of read/write tips. Moving in Y at constant velocity streams
// data through thousands of concurrently active tips.
//
// Positioning model. The sled is light, so each axis follows a
// constant-acceleration bang-bang trajectory: moving a fraction u of the
// full travel takes t_full * sqrt(u). After any X repositioning the sled
// must settle for x_settle before tips can read. We model X and Y
// positioning as non-overlapped (worst case: the Y pass cannot start until
// the sled is settled in X), so
//
//   max access latency = x_full_stroke + x_settle + y_full_stroke.
//
// With the G3 figures (0.45 ms + 0.14 ms + 0.27 ms = 0.86 ms) this gives a
// FutureDisk/G3 latency ratio of 4.3/0.86 = 5, matching the paper's §5.1
// ("the value for this parameter is around 5").

#ifndef MEMSTREAM_DEVICE_MEMS_DEVICE_H_
#define MEMSTREAM_DEVICE_MEMS_DEVICE_H_

#include <cstdint>
#include <string>

#include "device/device.h"

namespace memstream::device {

/// Datasheet-level description of a MEMS storage device.
struct MemsParameters {
  std::string name = "G3 MEMS";
  BytesPerSecond transfer_rate = 320 * kMBps;
  Bytes capacity = 10 * kGB;
  Seconds x_full_stroke = 0.45 * kMillisecond;  ///< full X travel time
  Seconds x_settle = 0.14 * kMillisecond;       ///< oscillation damping
  Seconds y_full_stroke = 0.27 * kMillisecond;  ///< full Y travel time
  std::int64_t num_regions = 2500;  ///< distinct X positions ("cylinders")
  std::int64_t active_tips = 3200;  ///< concurrently streaming tips
  Dollars cost_per_device = 10;
};

/// Kinematic MEMS device model. Logical layout: the byte space is divided
/// into `num_regions` equal stripes along X; within a stripe, data lies
/// along Y and is streamed sequentially at `transfer_rate`.
class MemsDevice final : public BlockDevice {
 public:
  /// Validates the parameters.
  static Result<MemsDevice> Create(const MemsParameters& params);

  std::string name() const override { return params_.name; }
  Bytes Capacity() const override { return params_.capacity; }
  BytesPerSecond MaxTransferRate() const override {
    return params_.transfer_rate;
  }

  /// x_full_stroke + x_settle + y_full_stroke (see file comment).
  Seconds MaxAccessLatency() const override;

  /// Expected positioning time between two uniformly random locations:
  /// E[sqrt(u)] = 8/15 per axis, plus the settle time.
  Seconds AverageAccessLatency() const override;

  /// Seek time from the current sled position to the byte offset, then a
  /// constant-rate transfer. Perfectly sequential continuation (same
  /// region, contiguous Y) pays no positioning cost. `rng` is unused (the
  /// model is deterministic) and may be null.
  Result<Seconds> Service(const IoSpan& io, Rng* rng) override;

  void Reset() override;

  /// Positioning time between two explicit sled coordinates:
  /// region indices in [0, num_regions) and Y fractions in [0, 1].
  Seconds SeekTime(std::int64_t from_region, double from_y,
                   std::int64_t to_region, double to_y) const;

  const MemsParameters& parameters() const { return params_; }
  std::int64_t current_region() const { return current_region_; }
  double current_y() const { return current_y_; }

  // --- degradation hook (src/fault/) ---

  /// Whole-device failure / repair. A failed device refuses Service()
  /// with Unavailable; position state is kept (repair resumes in place).
  void SetFailed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

 private:
  /// A sled coordinate: X region index and Y travel fraction.
  struct SledPosition {
    std::int64_t region = 0;
    double y = 0.0;
  };

  explicit MemsDevice(MemsParameters params)
      : params_(std::move(params)),
        region_capacity_(params_.capacity /
                         static_cast<double>(params_.num_regions)) {}

  /// Sled coordinate of an offset in [0, capacity).
  SledPosition PositionOf(Bytes offset) const;

  /// Where the sled stops after streaming `bytes` from `start`.
  SledPosition Advance(SledPosition start, Bytes bytes) const;

  MemsParameters params_;
  Bytes region_capacity_;  ///< bytes per X region (capacity / num_regions)
  std::int64_t current_region_ = 0;
  double current_y_ = 0.0;  ///< fraction of the Y travel, in [0, 1]
  bool failed_ = false;
};

}  // namespace memstream::device

#endif  // MEMSTREAM_DEVICE_MEMS_DEVICE_H_
