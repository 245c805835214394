#include "common/math_utils.h"

namespace memstream {

Result<double> Bisect(const std::function<double(double)>& f, double lo,
                      double hi, const SolverOptions& opts) {
  if (!(lo <= hi)) {
    return Status::InvalidArgument("Bisect: lo must be <= hi");
  }
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0) == (fhi > 0)) {
    return Status::InvalidArgument("Bisect: f(lo) and f(hi) have same sign");
  }
  for (int i = 0; i < opts.max_iterations && (hi - lo) > opts.tolerance; ++i) {
    double mid = 0.5 * (lo + hi);
    double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if ((fmid > 0) == (flo > 0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Result<std::int64_t> LargestTrue(
    const std::function<bool(std::int64_t)>& pred, std::int64_t lo,
    std::int64_t hi) {
  if (lo > hi) return Status::InvalidArgument("LargestTrue: empty range");
  if (!pred(lo)) return Status::NotFound("LargestTrue: pred(lo) is false");
  if (pred(hi)) return hi;
  // Invariant: pred(lo) true, pred(hi) false.
  while (hi - lo > 1) {
    std::int64_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<double> GoldenSectionMinimize(const std::function<double(double)>& f,
                                     double lo, double hi,
                                     const SolverOptions& opts) {
  if (!(lo <= hi)) {
    return Status::InvalidArgument("GoldenSectionMinimize: lo must be <= hi");
  }
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo, b = hi;
  double c = b - (b - a) * kInvPhi;
  double d = a + (b - a) * kInvPhi;
  double fc = f(c), fd = f(d);
  for (int i = 0; i < opts.max_iterations && (b - a) > opts.tolerance; ++i) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - (b - a) * kInvPhi;
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + (b - a) * kInvPhi;
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

}  // namespace memstream
