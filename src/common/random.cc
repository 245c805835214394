#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace memstream {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Expand the seed with SplitMix64 per the xoshiro authors' advice.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is negligible for span << 2^64; acceptable for workloads.
  return lo + static_cast<std::int64_t>(NextU64() % span);
}

double Rng::NextExponential(double rate) {
  assert(rate > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(1.0 - u) / rate;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent) {
  assert(n >= 1);
  assert(exponent >= 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), exponent);
    cdf_[k - 1] = acc;
  }
  for (auto& v : cdf_) v /= acc;

  // One pass over the CDF: entry i opens every bucket up to its own.
  guide_.resize(n);
  std::size_t j = 0;
  for (std::size_t i = 0; i < n && j < n; ++i) {
    const std::size_t last = Bucket(cdf_[i]);
    while (j <= last) guide_[j++] = i;
  }
  while (j < n) guide_[j++] = n - 1;
}

std::size_t ZipfDistribution::Bucket(double u) const {
  const auto b = static_cast<std::size_t>(
      u * static_cast<double>(cdf_.size()));
  return std::min(b, cdf_.size() - 1);
}

std::size_t ZipfDistribution::RankOf(double u) const {
  std::size_t i = guide_[Bucket(u)];
  while (i + 1 < cdf_.size() && cdf_[i] < u) ++i;
  return i + 1;
}

double ZipfDistribution::Pmf(std::size_t rank) const {
  assert(rank >= 1 && rank <= cdf_.size());
  const double hi = cdf_[rank - 1];
  const double lo = rank >= 2 ? cdf_[rank - 2] : 0.0;
  return hi - lo;
}

}  // namespace memstream
