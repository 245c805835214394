// The incremental re-solve layer is only trusted where it is provably
// equal to the full derivation. This test pins that equivalence down:
//
//  - probe kernels vs Result-returning solvers: over randomized
//    parameters (feasible and infeasible alike), a feasible probe must
//    be bit-identical to the full solve and an infeasible one must be
//    NaN exactly when the full solve is non-OK;
//  - LargestTrueInline vs math_utils' LargestTrue on random monotone
//    predicates;
//  - the Theorem-2 admission and degradation re-solve memos under
//    randomized admit/depart and fault/repair sequences, with the
//    hit-time cross-check forced on — any divergence between the
//    memoized and the full path lands in stats().mismatches;
//  - Theorem-1 admission, which solves directly without a memo, against
//    TotalBufferSize over randomized admit/depart churn;
//  - BreakEvenCostFactor's hoisted bisection vs a reference that runs
//    the full EvaluateSensitivity at every probe.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "common/random.h"
#include "device/device_catalog.h"
#include "fault/degradation.h"
#include "model/incremental.h"
#include "model/mems_cache.h"
#include "model/profiles.h"
#include "model/sensitivity.h"
#include "model/timecycle.h"
#include "server/admission.h"

namespace memstream {
namespace {

using model::DoubleBits;

TEST(ProbeKernelTest, Theorem1MatchesFullSolverBitExactly) {
  Rng rng(101);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::int64_t n = rng.NextInt(-2, 300);
    const BytesPerSecond b = rng.NextDouble() * 4 * kMBps;
    model::DeviceProfile dev;
    // Spans both sides of the R > n * B̄ boundary.
    dev.rate = rng.NextDouble() * 400 * kMBps;
    dev.latency = (rng.NextDouble() - 0.05) * 20 * kMillisecond;

    const double per = model::ProbeTheorem1PerStream(n, b, dev.rate,
                                                     dev.latency);
    auto full = model::PerStreamBufferSize(n, b, dev);
    if (full.ok()) {
      ++feasible;
      ASSERT_EQ(DoubleBits(per), DoubleBits(full.value()))
          << "n=" << n << " b=" << b << " rate=" << dev.rate;
    } else {
      ++infeasible;
      ASSERT_TRUE(std::isnan(per)) << "n=" << n << " b=" << b;
    }

    const double total = model::ProbeTheorem1Total(n, b, dev.rate,
                                                   dev.latency);
    auto full_total = model::TotalBufferSize(n, b, dev);
    if (full_total.ok()) {
      ASSERT_EQ(DoubleBits(total), DoubleBits(full_total.value()));
    } else {
      ASSERT_TRUE(std::isnan(total));
    }
  }
  // The random ranges must actually exercise both outcomes.
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 1000);
}

TEST(ProbeKernelTest, CacheSizingMatchesFullSolverBitExactly) {
  Rng rng(202);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::int64_t n = rng.NextInt(-1, 150);
    const std::int64_t k = rng.NextInt(0, 8);
    const BytesPerSecond b = rng.NextDouble() * 2 * kMBps;
    model::DeviceProfile mems;
    mems.rate = rng.NextDouble() * 80 * kMBps;
    mems.latency = rng.NextDouble() * 2 * kMillisecond;
    const auto policy = rng.NextInt(0, 1) == 0
                            ? model::CachePolicy::kReplicated
                            : model::CachePolicy::kStriped;

    const double per = model::ProbeCachePerStream(n, b, k, mems, policy);
    auto full = model::CachePerStreamBuffer(n, b, k, mems, policy);
    if (full.ok()) {
      ++feasible;
      ASSERT_EQ(DoubleBits(per), DoubleBits(full.value()))
          << "n=" << n << " k=" << k << " b=" << b;
    } else {
      ++infeasible;
      ASSERT_TRUE(std::isnan(per)) << "n=" << n << " k=" << k;
    }

    const double total = model::ProbeCacheTotal(n, b, k, mems, policy);
    auto full_total = model::CacheTotalBuffer(n, b, k, mems, policy);
    if (full_total.ok()) {
      ASSERT_EQ(DoubleBits(total), DoubleBits(full_total.value()));
    } else {
      ASSERT_TRUE(std::isnan(total));
    }
  }
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 1000);
}

TEST(ProbeKernelTest, LargestTrueInlineMatchesLargestTrue) {
  Rng rng(303);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::int64_t lo = rng.NextInt(-5, 5);
    const std::int64_t hi = lo + rng.NextInt(-1, 40);
    // Monotone predicate: true up to a random threshold.
    const std::int64_t threshold = rng.NextInt(lo - 2, hi + 2);
    auto pred = [&](std::int64_t x) { return x <= threshold; };

    const std::int64_t inline_best = model::LargestTrueInline(pred, lo, hi);
    auto full = LargestTrue(pred, lo, hi);
    if (full.ok()) {
      ASSERT_EQ(inline_best, full.value())
          << "lo=" << lo << " hi=" << hi << " threshold=" << threshold;
    } else {
      // The std::function version reports "none true" as a Status; the
      // inline one as lo - 1.
      ASSERT_EQ(inline_best, lo - 1)
          << "lo=" << lo << " hi=" << hi << " threshold=" << threshold;
    }
  }
}

TEST(SolveMemoTest, AdmissionChurnNeverDivergesFromFullSolver) {
  // Theorem-2 admission (buffer_k > 0) memoizes its solves; Theorem 1
  // has no memo (see DirectAdmissionTest below).
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  server::AdmissionConfig config;
  config.dram_budget = 2 * kGB;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = model::DiskLatencyFn(disk);
  config.buffer_k = 2;
  config.mems.rate = 320 * kMBps;
  config.mems.latency = 0.86 * kMillisecond;
  config.mems.capacity = 10 * kGB;
  auto ctrl = server::AdmissionController::Create(config);
  ASSERT_TRUE(ctrl.ok());
  ctrl.value().set_cross_check(true);

  // Churn across a small pool of rates so (n, B̄) keys recur; every
  // memo hit re-runs the full solver and compares.
  const BytesPerSecond rates[] = {500 * kKBps, 1 * kMBps, 2 * kMBps};
  Rng rng(406);
  std::vector<BytesPerSecond> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.NextInt(0, 2) != 0) {
      const BytesPerSecond r = rates[rng.NextInt(0, 2)];
      if (ctrl.value().TryAdmit(r).admitted) live.push_back(r);
    } else {
      const auto victim = static_cast<std::size_t>(
          rng.NextInt(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(ctrl.value().Release(live[victim]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    (void)ctrl.value().CurrentDramRequirement();
  }
  const auto& stats = ctrl.value().memo_stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.cross_checks, 0);
  EXPECT_EQ(stats.mismatches, 0);
}

TEST(DirectAdmissionTest, ChurnMatchesTheorem1BitForBit) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  server::AdmissionConfig config;
  config.dram_budget = 2 * kGB;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = model::DiskLatencyFn(disk);
  auto ctrl = server::AdmissionController::Create(config);
  ASSERT_TRUE(ctrl.ok());

  // The closed form the controller must reproduce: Theorem 1 at the
  // post-decision load, infinity where the solver reports infeasible.
  auto theorem1 = [&](std::int64_t n, BytesPerSecond sum) -> Bytes {
    if (n == 0) return 0;
    model::DeviceProfile profile;
    profile.rate = config.disk_rate;
    profile.latency = config.disk_latency(n);
    auto total = model::TotalBufferSize(
        n, sum / static_cast<double>(n), profile);
    return total.ok() ? total.value()
                      : std::numeric_limits<double>::infinity();
  };

  // Integer Table-1-style rates keep the test's own running sum exact,
  // so it pins total_bit_rate() as well. 10 MB/s streams drive the load
  // into the bandwidth bound, so infeasible solves are covered too.
  const BytesPerSecond rates[] = {16 * kKBps, 100 * kKBps, 1 * kMBps,
                                  10 * kMBps};
  Rng rng(404);
  std::vector<BytesPerSecond> live;
  BytesPerSecond sum = 0;
  int admitted = 0, rejected = 0;
  for (int step = 0; step < 6000; ++step) {
    if (live.empty() || rng.NextInt(0, 2) != 0) {
      const BytesPerSecond r = rates[rng.NextInt(0, 3)];
      const auto n = static_cast<std::int64_t>(live.size()) + 1;
      const server::AdmissionDecision d = ctrl.value().TryAdmit(r);
      ASSERT_EQ(DoubleBits(d.dram_required), DoubleBits(theorem1(n, sum + r)))
          << "step " << step << " n=" << n;
      if (d.admitted) {
        live.push_back(r);
        sum += r;
        ++admitted;
      } else {
        ++rejected;
      }
    } else {
      const auto victim = static_cast<std::size_t>(
          rng.NextInt(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(ctrl.value().Release(live[victim]).ok());
      sum -= live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const auto n = static_cast<std::int64_t>(live.size());
    ASSERT_EQ(ctrl.value().admitted_count(), n);
    ASSERT_EQ(DoubleBits(ctrl.value().total_bit_rate()), DoubleBits(sum));
    ASSERT_EQ(DoubleBits(ctrl.value().CurrentDramRequirement()),
              DoubleBits(theorem1(n, sum)))
        << "step " << step << " n=" << n;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  // Theorem 1 never touches the memo.
  EXPECT_EQ(ctrl.value().memo_stats().hits, 0);
  EXPECT_EQ(ctrl.value().memo_stats().misses, 0);
}

// The same churn on a controller sharing a SizingTable at 100 KB/s: it
// answers from the table while it holds only 100 KB/s streams and
// solves once it holds two or more rate classes, and both give the
// closed form's bits.
TEST(DirectAdmissionTest, TableControllerChurnMatchesTheorem1BitForBit) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  server::AdmissionConfig config;
  config.dram_budget = 2 * kGB;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = model::DiskLatencyFn(disk);
  auto ctrl = server::AdmissionController::Create(config);
  ASSERT_TRUE(ctrl.ok());
  auto table = ctrl.value().BuildSizingTable(100 * kKBps, 1 << 16);
  ASSERT_TRUE(table.ok());
  ctrl.value().UseSizingTable(&table.value());

  auto theorem1 = [&](std::int64_t n, BytesPerSecond sum) -> Bytes {
    if (n == 0) return 0;
    model::DeviceProfile profile;
    profile.rate = config.disk_rate;
    profile.latency = config.disk_latency(n);
    auto total = model::TotalBufferSize(
        n, sum / static_cast<double>(n), profile);
    return total.ok() ? total.value()
                      : std::numeric_limits<double>::infinity();
  };

  const BytesPerSecond rates[] = {16 * kKBps, 100 * kKBps, 1 * kMBps,
                                  10 * kMBps};
  Rng rng(405);
  std::vector<BytesPerSecond> live;
  BytesPerSecond sum = 0;
  int one_class_offers = 0, mixed_offers = 0;
  for (int step = 0; step < 6000; ++step) {
    // Alternate 200-step phases: the table's rate only, then any rate.
    // Oldest-first releases drain a mixed set back to one class.
    const bool table_phase = (step / 200) % 2 == 0;
    const bool admit = live.empty() || (live.size() < 40 && rng.NextInt(0, 1) == 0);
    if (admit) {
      const BytesPerSecond r =
          table_phase ? 100 * kKBps : rates[rng.NextInt(0, 3)];
      if (ctrl.value().rate_class_count() >= 2) {
        ++mixed_offers;
      } else if (r == 100 * kKBps &&
                 (live.empty() || live.front() == 100 * kKBps)) {
        ++one_class_offers;
      }
      const auto n = static_cast<std::int64_t>(live.size()) + 1;
      const server::AdmissionDecision d = ctrl.value().TryAdmit(r);
      ASSERT_EQ(DoubleBits(d.dram_required), DoubleBits(theorem1(n, sum + r)))
          << "step " << step << " n=" << n;
      if (d.admitted) {
        live.push_back(r);
        sum += r;
      }
    } else {
      ASSERT_TRUE(ctrl.value().Release(live.front()).ok());
      sum -= live.front();
      live.erase(live.begin());
    }
    ASSERT_EQ(ctrl.value().admitted_count(),
              static_cast<std::int64_t>(live.size()));
  }
  EXPECT_GT(one_class_offers, 100);
  EXPECT_GT(mixed_offers, 100);
}

TEST(SolveMemoTest, DegradationReplanNeverDivergesFromFullSolver) {
  for (const auto policy :
       {model::CachePolicy::kReplicated, model::CachePolicy::kStriped}) {
    fault::DegradationConfig config;
    config.policy = policy;
    config.k = 4;
    config.bit_rate = 1 * kMBps;
    config.mems.rate = 76 * kMBps;
    config.mems.latency = 0.86 * kMillisecond;
    config.disk.rate = 300 * kMBps;
    config.disk.latency = 4.3 * kMillisecond;
    config.n_disk = 10;
    config.n_cache = 60;
    auto manager = fault::DegradationManager::Create(config);
    ASSERT_TRUE(manager.ok());
    manager.value().set_cross_check(true);

    // Randomized fault/repair walk revisiting degraded states; memo
    // hits cross-check against ReplanFull / MaxSustainableFull.
    Rng rng(505 + static_cast<int>(policy));
    for (int step = 0; step < 3000; ++step) {
      const std::int64_t alive = rng.NextInt(0, config.k);
      const auto& plan = manager.value().Replan(alive);
      (void)manager.value().MaxSustainable(alive);
      // A replan never invents streams.
      ASSERT_LE(plan.retained + plan.to_disk + plan.shed,
                config.n_cache + config.k);
    }
    const auto& stats = manager.value().replan_stats();
    EXPECT_GT(stats.hits, 0);
    EXPECT_GT(stats.cross_checks, 0);
    EXPECT_EQ(stats.mismatches, 0);
  }
}

/// BreakEvenCostFactor reference: the pre-hoisting algorithm, running
/// the full sensitivity evaluation at every bisection probe.
Result<double> ReferenceBreakEven(const model::SensitivityInputs& inputs,
                                  double bandwidth_factor,
                                  double max_factor) {
  auto margin = [&](double factor) -> double {
    auto r = model::EvaluateSensitivity(inputs, factor, bandwidth_factor);
    if (!r.ok()) return -1.0;
    return r.value().cost_without - r.value().cost_with;
  };
  const double at_min = margin(1.0);
  const double at_max = margin(max_factor);
  if (at_min > 0) return 1.0;
  if (at_max <= 0) {
    return Status::NotFound("never breaks even");
  }
  return Bisect(margin, 1.0, max_factor, {1e-6, 200});
}

TEST(SensitivityIncrementalTest, BreakEvenMatchesFullReEvaluation) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  Rng rng(606);
  int found = 0;
  for (int trial = 0; trial < 40; ++trial) {
    model::SensitivityInputs inputs;
    inputs.disk_latency = model::DiskLatencyFn(disk);
    inputs.bit_rate = (0.5 + rng.NextDouble()) * 100 * kKBps;
    inputs.dram_cap = (1.0 + 4.0 * rng.NextDouble()) * kGB;
    inputs.mems_capacity = (2.0 + 8.0 * rng.NextDouble()) * kGB;
    inputs.dram_per_byte = (5.0 + 30.0 * rng.NextDouble()) / kGB;
    const double bandwidth = 0.5 + 2.0 * rng.NextDouble();
    const double max_factor = 100.0 + 900.0 * rng.NextDouble();

    auto fast = model::BreakEvenCostFactor(inputs, bandwidth, max_factor);
    auto reference = ReferenceBreakEven(inputs, bandwidth, max_factor);
    ASSERT_EQ(fast.ok(), reference.ok()) << "trial " << trial;
    if (fast.ok()) {
      ++found;
      // Identical margins probe for probe, so the bisections converge
      // to the identical double.
      EXPECT_EQ(DoubleBits(fast.value()), DoubleBits(reference.value()))
          << "trial " << trial;
    }
  }
  EXPECT_GT(found, 0);
}

TEST(SensitivityIncrementalTest, InvalidInputsKeepOriginalSemantics) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  model::SensitivityInputs inputs;
  inputs.disk_latency = model::DiskLatencyFn(disk);

  // EvaluateSensitivity validates its own factor arguments...
  EXPECT_EQ(model::EvaluateSensitivity(inputs, 0.0, 2.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model::EvaluateSensitivity(inputs, 2.0, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  model::SensitivityInputs no_latency;
  EXPECT_EQ(model::EvaluateSensitivity(no_latency, 2.0, 2.0).status().code(),
            StatusCode::kInvalidArgument);

  // ...while BreakEvenCostFactor folds an invalid configuration into
  // "never breaks even", exactly as before the hoisting.
  EXPECT_EQ(model::BreakEvenCostFactor(no_latency, 2.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(model::BreakEvenCostFactor(inputs, -1.0).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace memstream
