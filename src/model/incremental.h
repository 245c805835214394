// Incremental Theorem re-solves: the perf layer over the analytical
// model. Two complementary pieces.
//
// 1. Probe kernels. The capacity planners answer "largest n whose sizing
//    fits" questions by searching over n (or bisecting over a price
//    factor), and every *infeasible* probe of the Result-returning
//    solvers pays a Status-with-message heap allocation. ProbeTheorem1* /
//    ProbeCache* evaluate the identical closed forms — the same
//    operations in the same order, so a feasible probe produces the
//    bit-identical double — but signal infeasibility with NaN, and
//    LargestTrueInline drives them without std::function indirection.
//    incremental_model_test cross-checks the probes against the full
//    solvers over randomized parameters.
//
// 2. Re-solve memos. Theorem-2 admission and degradation re-plans
//    evaluate the same solver at the same handful of keys over and
//    over: every admit + depart pair returns to the previous (n, B̄)
//    and every fault + repair pair returns to the previous alive-device
//    count. SolveMemo caches solver outcomes on the
//    bit-exact key so a revisit costs a hash probe instead of a full
//    re-derivation. Theorem-1 admission skips the memo: its solve
//    costs less than the probe. In debug builds (or with set_cross_check(true))
//    every hit re-runs the full solver and counts disagreements in
//    stats().mismatches — the incremental path is only trusted where it
//    is provably equal to the full one.
//
// A SolveMemo belongs to one controller / manager instance and is not
// internally synchronized; instances must not be shared across
// concurrently running servers (the servers own their managers, so this
// holds today — the TSan CI job guards it).

#ifndef MEMSTREAM_MODEL_INCREMENTAL_H_
#define MEMSTREAM_MODEL_INCREMENTAL_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/units.h"
#include "model/mems_cache.h"
#include "model/profiles.h"

namespace memstream::model {

/// Bit pattern of a double, for bit-exact memo keys (and equality that
/// distinguishes nothing a full re-solve would not).
inline std::uint64_t DoubleBits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

inline double QuietNaN() {
  return std::numeric_limits<double>::quiet_NaN();
}

// --- probe kernels -------------------------------------------------------

/// Theorem 1 / Corollary 1 per-stream buffer, mirroring
/// PerStreamBufferSize() term for term; NaN where the full solver returns
/// a non-OK Status (invalid domain or R <= n * B̄).
inline double ProbeTheorem1PerStream(std::int64_t n, BytesPerSecond bit_rate,
                                     BytesPerSecond rate, Seconds latency) {
  if (n < 1 || bit_rate <= 0 || rate <= 0 || latency < 0) return QuietNaN();
  const double nn = static_cast<double>(n);
  if (!(rate > nn * bit_rate)) return QuietNaN();
  return nn * latency * rate * bit_rate / (rate - nn * bit_rate);
}

/// n * ProbeTheorem1PerStream, mirroring TotalBufferSize().
inline double ProbeTheorem1Total(std::int64_t n, BytesPerSecond bit_rate,
                                 BytesPerSecond rate, Seconds latency) {
  const double s = ProbeTheorem1PerStream(n, bit_rate, rate, latency);
  return static_cast<double>(n) * s;  // NaN propagates
}

/// Theorems 3/4 per-stream buffer, mirroring CachePerStreamBuffer();
/// NaN where the full solver returns a non-OK Status.
inline double ProbeCachePerStream(std::int64_t n, BytesPerSecond bit_rate,
                                  std::int64_t k, const DeviceProfile& mems,
                                  CachePolicy policy) {
  if (n < 1 || bit_rate <= 0 || k < 1) return QuietNaN();
  if (!CacheCanSustain(n, bit_rate, k, mems.rate, policy)) return QuietNaN();
  const double bank_rate = static_cast<double>(k) * mems.rate;
  const double seeks =
      policy == CachePolicy::kStriped
          ? static_cast<double>(n)
          : static_cast<double>(n + k - 1) / static_cast<double>(k);
  const double load = policy == CachePolicy::kStriped
                          ? static_cast<double>(n)
                          : static_cast<double>(n + k - 1);
  return seeks * mems.latency * bank_rate * bit_rate /
         (bank_rate - load * bit_rate);
}

/// n * ProbeCachePerStream, mirroring CacheTotalBuffer().
inline double ProbeCacheTotal(std::int64_t n, BytesPerSecond bit_rate,
                              std::int64_t k, const DeviceProfile& mems,
                              CachePolicy policy) {
  const double s = ProbeCachePerStream(n, bit_rate, k, mems, policy);
  return static_cast<double>(n) * s;
}

/// Largest n in [lo, hi] with pred(n) true, or lo - 1 when pred(lo) is
/// false. Same contract as math_utils' LargestTrue (pred monotone
/// non-increasing) but monomorphized on the predicate: a probe costs a
/// handful of flops, so the std::function hop would dominate it.
template <typename Pred>
std::int64_t LargestTrueInline(Pred&& pred, std::int64_t lo,
                               std::int64_t hi) {
  if (lo > hi || !pred(lo)) return lo - 1;
  std::int64_t known_true = lo;
  std::int64_t known_false = hi + 1;
  while (known_false - known_true > 1) {
    const std::int64_t mid = known_true + (known_false - known_true) / 2;
    if (pred(mid)) {
      known_true = mid;
    } else {
      known_false = mid;
    }
  }
  return known_true;
}

// --- re-solve memos ------------------------------------------------------

/// One solver invocation's identity: an integer term and up to two real
/// terms, reals keyed by bit pattern. Two keys are equal exactly when a
/// full re-derivation would be handed the identical inputs.
struct SolveKey {
  std::int64_t n = 0;
  std::uint64_t x_bits = 0;
  std::uint64_t y_bits = 0;

  bool operator==(const SolveKey&) const = default;
};

struct SolveKeyHash {
  std::size_t operator()(const SolveKey& key) const {
    std::uint64_t h =
        0x9E3779B97F4A7C15ull ^ static_cast<std::uint64_t>(key.n);
    h = (h ^ key.x_bits) * 0xFF51AFD7ED558CCDull;
    h = (h ^ key.y_bits) * 0xC4CEB9FE1A85EC53ull;
    return static_cast<std::size_t>(h ^ (h >> 33));
  }
};

/// Hit/miss accounting, exported as prof.* gauges by the owners and
/// asserted on by incremental_model_test (mismatches must stay 0).
struct SolveMemoStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t cross_checks = 0;
  std::int64_t mismatches = 0;
};

#ifndef NDEBUG
inline constexpr bool kSolveMemoCrossCheckDefault = true;
#else
inline constexpr bool kSolveMemoCrossCheckDefault = false;
#endif

/// Memo of a pure solve. Lookup() returns the cached value for a known
/// key, otherwise runs `full`, stores, and returns. In cross-check mode
/// every hit re-runs `full` anyway and compares via `equal`.
template <typename V>
class SolveMemo {
 public:
  template <typename FullFn, typename EqFn>
  const V& Lookup(const SolveKey& key, FullFn&& full, EqFn&& equal) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      if (cross_check_) {
        ++stats_.cross_checks;
        if (!equal(full(), it->second)) ++stats_.mismatches;
      }
      return it->second;
    }
    ++stats_.misses;
    return map_.emplace(key, full()).first->second;
  }

  /// Drops every cached solve (e.g. when the owning config changes).
  void Clear() { map_.clear(); }

  const SolveMemoStats& stats() const { return stats_; }
  bool cross_check() const { return cross_check_; }
  void set_cross_check(bool on) { cross_check_ = on; }

 private:
  std::unordered_map<SolveKey, V, SolveKeyHash> map_;
  SolveMemoStats stats_;
  bool cross_check_ = kSolveMemoCrossCheckDefault;
};

}  // namespace memstream::model

#endif  // MEMSTREAM_MODEL_INCREMENTAL_H_
