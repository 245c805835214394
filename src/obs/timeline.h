// Timeline recorder: bounded per-series time-series capture for
// per-stream buffer occupancy and per-device utilization, exportable
// into the RunReport JSON.
//
// Design rules (the PR 1 / PR 2 telemetry contracts):
//  - Handles returned by AddSeries() are stable pointers; instrumented
//    code resolves them once at construction and records through the
//    null-tolerant free helper, so a null recorder costs one pointer
//    test per sample site.
//  - The hot path is allocation-free: every series reserves its point
//    budget up front. When a series fills up it decimates in place
//    (keeps every other point) and doubles its sampling stride, so a
//    run of any length fits the budget while preserving the overall
//    shape of the signal — a classic bounded reservoir.

#ifndef MEMSTREAM_OBS_TIMELINE_H_
#define MEMSTREAM_OBS_TIMELINE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace memstream::obs {

/// One downsampled sample: simulated time (seconds) and a value.
struct TimelinePoint {
  double t = 0;
  double v = 0;
};

/// Capture knobs for every series of one recorder.
struct TimelineOptions {
  /// Retained points per series; on overflow the series decimates to
  /// half and doubles its stride. Must be >= 2.
  std::size_t max_points_per_series = 512;
};

/// One named, bounded time-series. Created via TimelineRecorder.
class TimelineSeries {
 public:
  TimelineSeries(std::string name, std::string unit, std::size_t capacity)
      : name_(std::move(name)), unit_(std::move(unit)),
        capacity_(capacity < 2 ? 2 : capacity) {
    points_.reserve(capacity_);
  }

  /// Records a sample (stride-gated; see the header comment). Monotone
  /// non-decreasing `t` is expected but not enforced.
  void Record(double t, double v) {
    ++seen_;
    if ((seen_ - 1) % stride_ != 0) return;
    if (points_.size() >= capacity_) Decimate();
    points_.push_back(TimelinePoint{t, v});
  }

  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }
  const std::vector<TimelinePoint>& points() const { return points_; }
  /// Samples offered to Record(), including ones the stride skipped.
  std::uint64_t samples_seen() const { return seen_; }
  /// Current sampling stride (1 until the first decimation).
  std::uint64_t stride() const { return stride_; }

 private:
  void Decimate() {
    // Keep every other point, in place; no allocation.
    std::size_t w = 0;
    for (std::size_t r = 0; r < points_.size(); r += 2) {
      points_[w++] = points_[r];
    }
    points_.resize(w);
    stride_ *= 2;
  }

  std::string name_;
  std::string unit_;
  std::size_t capacity_;
  std::vector<TimelinePoint> points_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

/// Owner of all timeline series for one run. Get-or-create semantics by
/// series name; handles are stable for the recorder's lifetime.
class TimelineRecorder {
 public:
  explicit TimelineRecorder(TimelineOptions options = {})
      : options_(options) {}
  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;

  /// Returns the series named `name`, creating it (with `unit`) first if
  /// needed. The pointer stays valid until the recorder is destroyed.
  TimelineSeries* AddSeries(const std::string& name,
                            const std::string& unit = "");

  const std::deque<TimelineSeries>& series() const { return series_; }
  std::size_t size() const { return series_.size(); }

  /// Retained points summed across series.
  std::size_t total_points() const;

 private:
  TimelineOptions options_;
  std::deque<TimelineSeries> series_;  ///< deque: stable element addresses
};

/// Null-tolerant sample helper, mirroring the obs::metrics idiom: resolve
/// the series handle once, call this in hot paths.
inline void Record(TimelineSeries* series, double t, double v) {
  if (series != nullptr) series->Record(t, v);
}

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_TIMELINE_H_
