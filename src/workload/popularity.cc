#include "workload/popularity.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace memstream::workload {

Result<TwoClassSampler> TwoClassSampler::Create(const model::Popularity& pop,
                                                std::int64_t num_titles) {
  if (!model::IsValidPopularity(pop)) {
    return Status::InvalidArgument("invalid X:Y popularity");
  }
  if (num_titles < 1) {
    return Status::InvalidArgument("num_titles must be >= 1");
  }
  auto num_popular = static_cast<std::int64_t>(
      std::llround(pop.x * static_cast<double>(num_titles)));
  num_popular = std::clamp<std::int64_t>(num_popular, 1, num_titles);
  return TwoClassSampler(pop, num_titles, num_popular);
}

std::int64_t TwoClassSampler::Sample(Rng& rng) const {
  if (num_popular_ == num_titles_) {
    return rng.NextInt(0, num_titles_ - 1);
  }
  if (rng.NextDouble() < pop_.y) {
    return rng.NextInt(0, num_popular_ - 1);
  }
  return rng.NextInt(num_popular_, num_titles_ - 1);
}

Result<ZipfSampler> ZipfSampler::Create(std::int64_t num_titles,
                                        double exponent) {
  if (num_titles < 1) {
    return Status::InvalidArgument("num_titles must be >= 1");
  }
  if (exponent < 0) {
    return Status::InvalidArgument("exponent must be >= 0");
  }
  return ZipfSampler(
      ZipfDistribution(static_cast<std::size_t>(num_titles), exponent));
}

std::int64_t ZipfSampler::Sample(Rng& rng) const {
  // ZipfDistribution ranks are 1-based.
  return static_cast<std::int64_t>(dist_.Sample(rng)) - 1;
}

double ZipfSampler::Pmf(std::int64_t title) const {
  if (title < 0 || title >= num_titles()) return 0;
  return dist_.Pmf(static_cast<std::size_t>(title) + 1);
}

std::int64_t ZipfSampler::num_titles() const {
  return static_cast<std::int64_t>(dist_.size());
}

Result<model::Popularity> FitZipfTwoClass(std::int64_t num_titles,
                                          double exponent,
                                          double cached_fraction) {
  auto sampler = ZipfSampler::Create(num_titles, exponent);
  MEMSTREAM_RETURN_IF_ERROR(sampler.status());
  std::vector<double> pmf;
  pmf.reserve(static_cast<std::size_t>(num_titles));
  for (std::int64_t t = 0; t < num_titles; ++t) {
    pmf.push_back(sampler.value().Pmf(t));
  }
  return FitTwoClass(pmf, cached_fraction);
}

Result<model::Popularity> FitTwoClass(const std::vector<double>& pmf,
                                      double x) {
  if (pmf.empty()) return Status::InvalidArgument("empty pmf");
  if (x <= 0 || x > 1) return Status::InvalidArgument("x must be in (0, 1]");
  std::vector<double> sorted = pmf;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  if (total <= 0) return Status::InvalidArgument("pmf sums to zero");

  auto top = static_cast<std::size_t>(
      std::llround(x * static_cast<double>(sorted.size())));
  top = std::clamp<std::size_t>(top, 1, sorted.size());
  const double captured =
      std::accumulate(sorted.begin(), sorted.begin() + top, 0.0) / total;

  model::Popularity fitted;
  fitted.x = static_cast<double>(top) / static_cast<double>(sorted.size());
  // Eq. 11 requires y >= x (the "popular" class is at least as hot as
  // uniform); a sub-uniform head can only happen with ties, where the
  // uniform description is exact.
  fitted.y = std::max(captured, fitted.x);
  return fitted;
}

}  // namespace memstream::workload
