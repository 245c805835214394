// Popularity models over a catalog of titles.
//
// The paper's evaluation uses the X:Y two-class model (X% of the titles
// draw Y% of the accesses, uniform within each class); we also provide a
// Zipf sampler as a more realistic alternative and a helper that fits the
// closest X:Y description to an arbitrary discrete distribution.

#ifndef MEMSTREAM_WORKLOAD_POPULARITY_H_
#define MEMSTREAM_WORKLOAD_POPULARITY_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "model/mems_cache.h"

namespace memstream::workload {

/// Samples title indices in [0, num_titles) under a model::Popularity
/// X:Y distribution: ranks below x*num_titles ("popular") share
/// probability y uniformly; the rest share 1-y.
class TwoClassSampler {
 public:
  /// Requires a valid popularity and num_titles >= 1.
  static Result<TwoClassSampler> Create(const model::Popularity& pop,
                                        std::int64_t num_titles);

  /// Draws a title index; popular titles occupy the low indices.
  std::int64_t Sample(Rng& rng) const;

  std::int64_t num_titles() const { return num_titles_; }
  std::int64_t num_popular() const { return num_popular_; }

 private:
  TwoClassSampler(const model::Popularity& pop, std::int64_t num_titles,
                  std::int64_t num_popular)
      : pop_(pop), num_titles_(num_titles), num_popular_(num_popular) {}

  model::Popularity pop_;
  std::int64_t num_titles_;
  std::int64_t num_popular_;
};

/// Samples title indices under Zipf(s) with rank 0 most popular.
class ZipfSampler {
 public:
  static Result<ZipfSampler> Create(std::int64_t num_titles,
                                    double exponent);

  std::int64_t Sample(Rng& rng) const;
  double Pmf(std::int64_t title) const;
  std::int64_t num_titles() const;

 private:
  explicit ZipfSampler(ZipfDistribution dist) : dist_(std::move(dist)) {}

  ZipfDistribution dist_;
};

/// Fits an X:Y description to an arbitrary access-probability vector
/// (sorted internally): for the given popular fraction x, returns the
/// model::Popularity whose y matches the mass actually captured by the
/// top x fraction of titles. Lets Zipf workloads reuse the paper's
/// Eq. 11 hit-rate machinery.
Result<model::Popularity> FitTwoClass(const std::vector<double>& pmf,
                                      double x);

/// The X:Y description of a Zipf(exponent) catalog of `num_titles`,
/// fitted at the popular fraction the cache can actually hold
/// (`cached_fraction`, e.g. model::CachedFraction(...)). Plugs Zipf
/// workloads straight into the Eq. 11 planners: fit at p so that the
/// head class is exactly the cacheable prefix.
Result<model::Popularity> FitZipfTwoClass(std::int64_t num_titles,
                                          double exponent,
                                          double cached_fraction);

}  // namespace memstream::workload

#endif  // MEMSTREAM_WORKLOAD_POPULARITY_H_
