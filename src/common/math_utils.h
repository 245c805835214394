// Numeric utilities: root finding, integer search and 1-D minimization.
//
// The analytical model needs two small solvers:
//  - bisection, to invert monotone feasibility conditions (e.g. the largest
//    N such that the DRAM budget holds);
//  - golden-section search, to minimize the total buffering cost over the
//    disk IO-cycle length T_disk (Fig. 8 uses per-byte MEMS pricing, which
//    makes the cost U-shaped in T_disk). The planner solves that minimum
//    in closed form; planner_test checks it against this search.

#ifndef MEMSTREAM_COMMON_MATH_UTILS_H_
#define MEMSTREAM_COMMON_MATH_UTILS_H_

#include <cstdint>
#include <functional>

#include "common/status.h"

namespace memstream {

/// Options controlling iterative solvers.
struct SolverOptions {
  double tolerance = 1e-9;   ///< absolute interval width at convergence
  int max_iterations = 200;  ///< hard iteration cap
};

/// Finds a root of `f` in [lo, hi] by bisection.
///
/// Requires f(lo) and f(hi) to have opposite signs (or one of them to be
/// zero). Returns the approximate root, or InvalidArgument if the bracket
/// is invalid.
Result<double> Bisect(const std::function<double(double)>& f, double lo,
                      double hi, const SolverOptions& opts = {});

/// Returns the largest integer n in [lo, hi] with pred(n) true.
///
/// Requires pred to be monotone non-increasing over [lo, hi] (true ...
/// true false ... false). Returns NotFound if pred(lo) is false.
Result<std::int64_t> LargestTrue(
    const std::function<bool(std::int64_t)>& pred, std::int64_t lo,
    std::int64_t hi);

/// Minimizes a unimodal function over [lo, hi] by golden-section search.
///
/// Returns the minimizing abscissa. Tolerance is on the abscissa interval.
Result<double> GoldenSectionMinimize(const std::function<double(double)>& f,
                                     double lo, double hi,
                                     const SolverOptions& opts = {});

}  // namespace memstream

#endif  // MEMSTREAM_COMMON_MATH_UTILS_H_
