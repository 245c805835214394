// Online SLO / error-budget monitor: declarative service-level
// objectives evaluated continuously while the simulation runs.
//
// An SLO is "fraction of good events >= objective" — e.g. "99.9% of
// stream-cycles complete without underflow". Each Slo keeps
//  - lifetime good/bad counts -> attainment and error-budget remaining
//    (budget = the bad events the objective allows; remaining = the
//    unspent fraction of that allowance), and
//  - a rolling ring of time buckets -> the burn rate over the recent
//    window (observed error rate / allowed error rate; 1.0 = spending
//    the budget exactly at the sustainable pace, >1 = on course to
//    exhaust it).
//
// Servers feed SLOs from existing per-cycle callbacks (no new sim
// events, so wiring a monitor never perturbs event order or bench
// CSVs); the hot path is allocation-free and a null monitor costs one
// pointer test via the free helpers below. The monitor and each Slo
// are mutex-guarded, so a reader on another thread (StatusJson, the
// gauges, the run report) sees consistent counts while the simulation
// thread records.
//
// Standard objectives for this codebase (factories below): zero
// underflows, non-negative cycle slack, admission-decision latency,
// and availability under faults.

#ifndef MEMSTREAM_OBS_SLO_H_
#define MEMSTREAM_OBS_SLO_H_

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace memstream::obs {

class JsonWriter;

/// Declarative definition of one SLO.
struct SloSpec {
  std::string name;         ///< metric-safe slug, e.g. "underflow"
  std::string description;  ///< human sentence for dashboards
  /// Target good fraction in (0, 1). The error budget is 1-objective.
  double objective = 0.999;
  /// Rolling window the burn rate is computed over (simulated seconds).
  double window_seconds = 60.0;
  /// Spec-specific threshold carried for documentation (e.g. the
  /// admission-latency cutoff in seconds that separates good from bad).
  double threshold = 0.0;
};

/// Live state of one SLO. Stable-address (owned by SloMonitor's deque);
/// Record() is allocation-free. Thread-safe: one internal mutex guards
/// recording against concurrent readers.
class Slo {
 public:
  explicit Slo(SloSpec spec);
  Slo(const Slo&) = delete;
  Slo& operator=(const Slo&) = delete;

  /// Records `good` conforming and `bad` non-conforming events observed
  /// at simulated time `now` (non-decreasing per producer).
  void Record(double now, std::int64_t good, std::int64_t bad);

  const SloSpec& spec() const { return spec_; }

  /// Lifetime good fraction; 1.0 before any event.
  double attainment() const;
  /// Fraction of the lifetime error budget still unspent: 1 when no
  /// errors, 0 when the observed error rate equals the allowance
  /// (1-objective), negative when past it.
  double budget_remaining() const;
  /// Observed error rate over the rolling window divided by the allowed
  /// rate. 0 = clean window, 1 = spending at exactly the sustainable
  /// pace, >1 = on course to exhaust the budget.
  double burn_rate() const;
  /// True once the lifetime budget is overspent (budget_remaining <= 0
  /// with at least one bad event) — clears the status document's
  /// "healthy" flag.
  bool exhausted() const;

  std::int64_t good() const;
  std::int64_t bad() const;

 private:
  static constexpr std::size_t kBuckets = 32;

  struct Bucket {
    std::int64_t index = -1;  ///< absolute bucket number; -1 = empty
    std::int64_t good = 0;
    std::int64_t bad = 0;
  };

  // Callers hold mu_.
  double WindowErrorRateLocked() const;

  SloSpec spec_;
  mutable std::mutex mu_;
  std::int64_t good_ = 0;
  std::int64_t bad_ = 0;
  std::array<Bucket, kBuckets> ring_;
  std::int64_t latest_bucket_ = -1;
};

/// Owner of all SLOs for one run. Add() is get-or-create by name so the
/// facade can pre-register with custom objectives before a server asks
/// for the standard spec. Publish*/StatusJson may run concurrently with
/// Record() on the contained Slos.
class SloMonitor {
 public:
  SloMonitor() = default;
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Get-or-create: an existing `spec.name` returns the existing Slo
  /// (its spec unchanged); otherwise the SLO is created from `spec`.
  Slo* Add(const SloSpec& spec);

  /// Lookup without creation; null when absent.
  Slo* Find(const std::string& name);
  const Slo* Find(const std::string& name) const;

  std::size_t size() const;

  /// The status document, as the run report's "slo" block carries it
  /// ("healthy" is false when any SLO's error budget is exhausted):
  /// {"healthy":bool,"slos":[{"name":...,"objective":...,"good":...,
  ///   "bad":...,"attainment":...,"budget_remaining":...,
  ///   "burn_rate":...,"exhausted":...},...]}
  std::string StatusJson() const;

  /// Writes the StatusJson() object as the next value of `w`, reading
  /// every SLO under the monitor's lock (the run report's "slo" block).
  void WriteJson(JsonWriter* w) const;

  /// Publishes slo.<name>.{attainment,budget_remaining,burn_rate} gauges.
  void PublishGauges(MetricsRegistry* metrics) const;

  /// Stable pointers to every registered SLO, in registration order
  /// (valid while the monitor lives).
  std::vector<const Slo*> Snapshot() const;

 private:
  mutable std::mutex mu_;   ///< guards the container, not the Slos
  std::deque<Slo> slos_;    ///< deque: stable addresses for handles
};

// Standard SLO specs. Get them through monitor->Add(StandardXxxSlo()) so
// every producer shares one SLO per objective.
SloSpec StandardUnderflowSlo();        ///< stream-cycles without underflow
SloSpec StandardCycleSlackSlo();       ///< cycles with non-negative slack
SloSpec StandardAdmissionLatencySlo(); ///< admission decisions under 200us
SloSpec StandardAvailabilitySlo();     ///< stream-cycles in service (faults)

// Null-tolerant helper: the per-cycle hot-path idiom.
inline void SloRecord(Slo* slo, double now, std::int64_t good,
                      std::int64_t bad) {
  if (slo != nullptr) slo->Record(now, good, bad);
}

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_SLO_H_
