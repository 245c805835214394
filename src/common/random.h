// Deterministic pseudo-random generation for workloads and simulation.
//
// A small xoshiro256** engine plus the distributions the workload layer
// needs: uniform, exponential (Poisson arrivals), Zipf (popularity), and
// the paper's X:Y two-class popularity sampler lives in workload/.

#ifndef MEMSTREAM_COMMON_RANDOM_H_
#define MEMSTREAM_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace memstream {

/// xoshiro256** PRNG. Deterministic across platforms for a given seed,
/// unlike std::mt19937 paired with std:: distributions.
class Rng {
 public:
  /// Seeds the engine; the same seed always produces the same sequence.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double NextExponential(double rate);

 private:
  std::uint64_t s_[4];
};

/// Discrete Zipf(s) distribution over ranks 1..n: P(rank k) ~ 1/k^s.
///
/// Sampling inverts a precomputed CDF through a guide table (Chen and
/// Asau): n equal-width buckets over [0, 1), each holding the first CDF
/// index that can answer a draw in it, so a draw costs one multiply and
/// a step or two of forward scan instead of a binary search. The rank
/// is exactly the one std::lower_bound over the CDF returns, so seeded
/// draw sequences do not depend on the lookup. Used to model stream
/// popularity skew beyond the paper's two-class X:Y model.
class ZipfDistribution {
 public:
  /// Builds the CDF and its guide table. Requires n >= 1 and s >= 0
  /// (s == 0 is uniform).
  ZipfDistribution(std::size_t n, double exponent);

  /// Samples a rank in [1, n].
  std::size_t Sample(Rng& rng) const { return RankOf(rng.NextDouble()); }

  /// Rank the uniform draw `u` in [0, 1) maps to: 1 + the index of the
  /// first CDF entry >= u (the last rank when none is).
  std::size_t RankOf(double u) const;

  /// Probability of the given rank (1-based).
  double Pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }
  /// cdf()[k - 1] = P(rank <= k); the last entry is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  /// Guide bucket of `u`: floor(u * n), clamped to the last bucket.
  std::size_t Bucket(double u) const;

  std::vector<double> cdf_;
  /// guide_[j] = first CDF index whose own bucket is >= j, hence at or
  /// below the answer for every u in bucket j (Bucket is monotone).
  std::vector<std::size_t> guide_;
};

}  // namespace memstream

#endif  // MEMSTREAM_COMMON_RANDOM_H_
