// The benchmark's four workloads. Each one builds its inputs from the
// seed in Setup (timed as set-up), then runs one fixed amount of work per
// Run call (one timed repetition) through the library's public entry
// points, returning the deterministic outputs run.py checks and the
// work counts its rates are made of.
//
//   sim_paper    the seven sim_validation server configs, eager path
//   sim_faults   the same configs with a TraceLog attached, plus two
//                MEMS-cache configs under seeded device fail/repair plans
//   farm_zipf    the million-stream popularity-aware farm
//   admit_churn  Theorem-2 admission replaying a mixed-rate churn trace
//
// See perfbench/BENCHMARK.md for why each was chosen.

#ifndef MEMSTREAM_PERFBENCH_WORKLOADS_H_
#define MEMSTREAM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/profiler.h"
#include "common/status.h"
#include "spans.h"

namespace memstream::perfbench {

/// One checked output value: a count, a simulated quantity, or a digest.
using Value = std::variant<std::int64_t, double, std::string>;

/// Per-layer metrics, by the names BENCHMARK.json lists.
using LayerMetrics = std::map<std::string, double>;

/// Deterministic outputs of one repetition: item -> field -> value, in
/// insertion order (items are configs, or the whole farm / trace).
struct Outputs {
  using Fields = std::vector<std::pair<std::string, Value>>;
  std::vector<std::pair<std::string, Fields>> items;

  Fields& Item(const std::string& name) {
    items.emplace_back(name, Fields{});
    return items.back().second;
  }
};

/// What one timed repetition did.
struct Rep {
  Outputs outputs;
  /// Operations attempted and failed, in the workload's own unit:
  /// simulated IOs and their underflows + audited violations, or
  /// admission calls and their error statuses.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Work counted by the throughput rates (zero where one does not apply).
  std::int64_t sim_ios = 0;
  std::int64_t farm_admitted = 0;
  std::int64_t admit_decisions = 0;
  /// Non-empty when a library call returned an error or an invariant
  /// broke; run.py then counts the repetition as failed in full.
  std::string error;
  /// Per-layer counts this repetition produced (IOs per server mode,
  /// re-plans, trace records...); the traced run reports their mean.
  LayerMetrics counters;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`, replacing any earlier ones. Records
  /// set-up spans into `spans` when non-null.
  virtual Status Setup(std::uint64_t seed, int threads,
                       SpanRecorder* spans) = 0;

  /// One repetition. With `spans` non-null, wraps each call into a
  /// layer in a span.
  virtual Rep Run(SpanRecorder* spans) = 0;

  /// Traced-run-only work that the timed repetitions do not contain
  /// (the farm's replayed admission wave). `reference` is an untraced
  /// repetition's result to check against; returns an error message on
  /// mismatch.
  virtual std::string TracedExtras(SpanRecorder* /*spans*/,
                                   const Rep& /*reference*/) {
    return {};
  }

  /// Adds this workload's per-layer metrics from the traced run's spans
  /// and profiler snapshot: per repetition over `reps` traced
  /// repetitions, per set-up for set-up layers (the traced run sets up
  /// once). `out` already holds the mean of the repetitions' counters.
  virtual void AddLayerMetrics(const SpanRecorder& spans,
                               const prof::ProfileSnapshot& profile,
                               double reps, LayerMetrics* out) const = 0;
};

/// The workload named `name`, or null when there is none.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace memstream::perfbench

#endif  // MEMSTREAM_PERFBENCH_WORKLOADS_H_
