// Streaming statistics for the simulator: a scalar accumulator, a
// fixed-bucket histogram for latency distributions, and a time-weighted
// accumulator for occupancy-style series (buffer fill over time).

#ifndef MEMSTREAM_COMMON_HISTOGRAM_H_
#define MEMSTREAM_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace memstream {

/// Running count/min/max/mean/sum over a stream of samples.
class RunningStats {
 public:
  void Add(double x);

  /// Folds another accumulator in, as if every sample it saw had been
  /// Add()ed here (Chan et al. parallel combine). Order-independent up
  /// to floating-point rounding; the sweep engine merges per-task stats
  /// in task order so results stay bit-reproducible.
  void Merge(const RunningStats& other);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear-bucket histogram over [lo, hi); out-of-range samples land in
/// saturating edge buckets so totals are never lost.
class Histogram {
 public:
  /// Requires lo < hi and buckets >= 1.
  Histogram(double lo, double hi, std::size_t buckets);

  void Add(double x);

  /// Adds another histogram's samples bucket-by-bucket. Returns false
  /// (and changes nothing) unless `other` has the identical [lo, hi)
  /// range and bucket count.
  bool Merge(const Histogram& other);

  std::int64_t TotalCount() const { return total_; }
  std::int64_t BucketCount(std::size_t i) const { return counts_[i]; }
  std::size_t NumBuckets() const { return counts_.size(); }
  double BucketLow(std::size_t i) const;

  /// Value below which `q` (in [0,1]) of the samples fall, interpolated
  /// within the containing bucket. Well-defined at the edges: an empty
  /// histogram returns `lo`, and any non-empty result is clamped to the
  /// observed [min, max] — so a single sample (or all-equal samples)
  /// yields exactly that value at every q, and q=0 / q=1 return the
  /// true min / max rather than a bucket boundary.
  double Quantile(double q) const;

  const RunningStats& stats() const { return stats_; }

 private:
  double lo_, hi_, bucket_width_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
  RunningStats stats_;
};

/// Time-weighted average of a piecewise-constant signal, e.g. DRAM buffer
/// occupancy as a function of simulated time.
class TimeWeightedStats {
 public:
  /// Records that the signal held `value` from the previous update time
  /// until `now`. Times must be non-decreasing.
  void Update(double now, double value);

  /// Combines two independently observed signals (e.g. the same gauge
  /// tracked in per-task registries): durations and weighted sums add,
  /// max is the overall max, and last_value follows `other` when it saw
  /// any update — so merging in task order keeps last-writer-wins
  /// semantics deterministic.
  void Merge(const TimeWeightedStats& other);

  double TimeAverage() const;
  double last_value() const { return last_value_; }
  double max_value() const { return max_value_; }

 private:
  bool started_ = false;
  double last_time_ = 0.0;
  double last_value_ = 0.0;
  double max_value_ = 0.0;
  double weighted_sum_ = 0.0;
  double total_time_ = 0.0;
};

}  // namespace memstream

#endif  // MEMSTREAM_COMMON_HISTOGRAM_H_
