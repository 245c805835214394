#include "common/histogram.h"

#include <algorithm>
#include <cassert>

namespace memstream {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n_a = static_cast<double>(count_);
  const double n_b = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n_a + n_b;
  mean_ += delta * n_b / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), bucket_width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(lo < hi);
  assert(buckets >= 1);
}

void Histogram::Add(double x) {
  stats_.Add(x);
  ++total_;
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / bucket_width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
}

bool Histogram::Merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  stats_.Merge(other.stats_);
  return true;
}

double Histogram::BucketLow(std::size_t i) const {
  return lo_ + bucket_width_ * static_cast<double>(i);
}

double Histogram::Quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return lo_;
  // Clamping to the observed sample range keeps the edges well-defined:
  // bucket interpolation alone would report values past the max for
  // all-equal samples (e.g. p95 of {5,5,5} landing at 5.475) and bucket
  // lows below the min at small q.
  const double clamp_lo = stats_.min();
  const double clamp_hi = stats_.max();
  const double target = q * static_cast<double>(total_);
  double acc = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = acc + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac =
          counts_[i] ? (target - acc) / static_cast<double>(counts_[i]) : 0.0;
      return std::clamp(BucketLow(i) + frac * bucket_width_, clamp_lo,
                        clamp_hi);
    }
    acc = next;
  }
  return clamp_hi;
}

void TimeWeightedStats::Update(double now, double value) {
  if (started_) {
    assert(now >= last_time_);
    const double dt = now - last_time_;
    weighted_sum_ += last_value_ * dt;
    total_time_ += dt;
  }
  started_ = true;
  last_time_ = now;
  last_value_ = value;
  max_value_ = std::max(max_value_, value);
}

void TimeWeightedStats::Merge(const TimeWeightedStats& other) {
  weighted_sum_ += other.weighted_sum_;
  total_time_ += other.total_time_;
  max_value_ = std::max(max_value_, other.max_value_);
  if (other.started_) {
    started_ = true;
    last_time_ = other.last_time_;
    last_value_ = other.last_value_;
  }
}

double TimeWeightedStats::TimeAverage() const {
  if (total_time_ <= 0.0) return last_value_;
  return weighted_sum_ / total_time_;
}

}  // namespace memstream
