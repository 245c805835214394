// Model-driven admission control: a new stream is admitted only if the
// analytical sizing (Theorem 1 directly from disk, or Theorem 2 through
// the MEMS buffer) still fits the DRAM budget and the bandwidth bounds
// with the stream added. The controller tracks admitted bit-rates and
// evaluates the model at their average, matching the paper's B̄.

#ifndef MEMSTREAM_SERVER_ADMISSION_H_
#define MEMSTREAM_SERVER_ADMISSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/incremental.h"
#include "model/mems_buffer.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace memstream::server {

/// Static description of the server the controller guards.
struct AdmissionConfig {
  Bytes dram_budget = 1 * kGB;
  BytesPerSecond disk_rate = 300 * kMBps;
  model::LatencyFn disk_latency;  ///< L̄_disk(n), required
  /// MEMS buffer in front of the disk; 0 disables it (direct streaming).
  std::int64_t buffer_k = 0;
  model::DeviceProfile mems;      ///< used when buffer_k > 0
  /// Optional telemetry: admission.{attempts,admitted,rejected} counters
  /// and an admission.latency_us histogram. Null (the default) keeps
  /// TryAdmit clock-free. Not owned.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional SLO monitor: each TryAdmit's wall-clock decision latency
  /// feeds the standard "admission_latency" SLO (good = under the spec's
  /// threshold). Null keeps TryAdmit clock-free. Not owned.
  obs::SloMonitor* slo = nullptr;
};

/// Outcome of an admission test.
struct AdmissionDecision {
  bool admitted = false;
  std::int64_t streams_after = 0;
  Bytes dram_required = 0;   ///< total DRAM at the post-admission load
  std::string reason;        ///< why a rejection happened
};

/// An AdmissionDecision without its reason text (see
/// AdmissionController::Admit).
struct AdmissionVerdict {
  bool admitted = false;
  std::int64_t streams_after = 0;
  Bytes dram_required = 0;
};

/// Theorem-1 sizing of a one-rate admitted set, dense by count: entry n
/// is the dram_required TryAdmit reports for the n-th stream of the
/// table's rate on a controller holding only streams of that rate, bit
/// for bit. It ends at the first count that does not fit (reason() then
/// holds TryAdmit's rejection text) or at a caller's cap. Read-only
/// once built, so any number of controllers, on any threads, may share
/// one.
class SizingTable {
 public:
  /// Largest count the table answers for.
  std::int64_t max_count() const {
    return static_cast<std::int64_t>(dram_.size()) - 1;
  }
  /// dram_required at `n` streams, n in [1, max_count()].
  Bytes dram(std::int64_t n) const {
    return dram_[static_cast<std::size_t>(n)];
  }
  /// Why max_count() is rejected; empty when the table ends at a cap.
  const std::string& reason() const { return reason_; }

 private:
  friend class AdmissionController;

  BytesPerSecond rate_ = 0;
  std::vector<Bytes> dram_;  ///< [0] unused
  std::string reason_;
};

/// Tracks the admitted set and enforces the model's feasibility bounds.
///
/// The sizing is a pure function of (n, B̄). The controller keeps the
/// admitted set as a {rate, count} table per rate class, so admit and
/// release are O(classes). The summed bit-rate is re-derived from the
/// table after each change, so it cannot drift under += / -= and is
/// exactly 0 once the set drains.
///
/// Theorem 1 (buffer_k == 0) is solved directly on every call: one
/// L̄_disk(n) evaluation plus the closed form costs less than the hash
/// probe a per-controller memo would add, and in a farm's admission
/// wave each shard walks its own n upward once, so such a memo would
/// almost always miss. Across shards the loads repeat, though: every
/// shard of a one-rate farm asks for the same n. A SizingTable shared
/// by all of them (UseSizingTable) answers those offers with one load
/// per count while a controller holds only the table's rate; any other
/// set, or a count past the table, is solved as before. Theorem 2
/// (buffer_k > 0) goes through a memo on the bit-exact (n, B̄) key,
/// because churny admit/depart sequences keep returning to recently
/// seen loads and its solve is several times dearer. Debug builds
/// cross-check every memo hit against the full solver.
class AdmissionController {
 public:
  /// Requires a disk_latency function.
  static Result<AdmissionController> Create(AdmissionConfig config);

  /// Tests a stream of `bit_rate`; admits and records it when feasible.
  AdmissionDecision TryAdmit(BytesPerSecond bit_rate);

  /// TryAdmit's verdict without the wall clock: it skips the latency
  /// histogram and SLO (the counters still count). The reason text is
  /// built only on a rejection and only into a non-null `reason`, so an
  /// admission answered from a SizingTable touches no heap.
  AdmissionVerdict Admit(BytesPerSecond bit_rate, std::string* reason);

  /// Tabulates this controller's Theorem-1 sizing for streams of `rate`
  /// at counts 1, 2, ... up to the first that does not fit, or to
  /// `max_count`. Requires buffer_k == 0, rate > 0 and max_count >= 1.
  Result<SizingTable> BuildSizingTable(BytesPerSecond rate,
                                       std::int64_t max_count) const;
  /// Answers TryAdmit and Admit from `table` while every admitted
  /// stream and the offered one are at the table's rate and the count
  /// is inside the table. `table` must come from BuildSizingTable on a
  /// controller of the same config; not owned; null detaches it.
  void UseSizingTable(const SizingTable* table) { table_ = table; }

  /// Removes one previously admitted stream of `bit_rate`.
  Status Release(BytesPerSecond bit_rate);

  std::int64_t admitted_count() const { return admitted_count_; }
  BytesPerSecond total_bit_rate() const { return total_rate_; }
  /// Distinct bit-rates among the admitted streams; Release scans this
  /// many entries.
  std::size_t rate_class_count() const { return classes_.size(); }

  /// DRAM the current admitted set needs (0 when empty).
  Bytes CurrentDramRequirement() const;

  /// Theorem-2 re-solve memo accounting (hits/misses/cross-check
  /// mismatches); all zero when buffer_k == 0.
  const model::SolveMemoStats& memo_stats() const { return memo_.stats(); }
  /// Forces (or disables) the hit-time cross-check against the full
  /// solver; defaults to on in debug builds only.
  void set_cross_check(bool on) { memo_.set_cross_check(on); }

 private:
  /// Outcome of one (n, B̄) sizing.
  struct DramSolve {
    Bytes dram = 0;
    std::string reason;  ///< set when dram is infinite
  };

  explicit AdmissionController(AdmissionConfig config)
      : config_(std::move(config)) {
    // A one-rate set (a farm shard) then admits without allocating.
    classes_.reserve(1);
    if (config_.metrics != nullptr) {
      attempts_metric_ = config_.metrics->counter("admission.attempts");
      admitted_metric_ = config_.metrics->counter("admission.admitted");
      rejected_metric_ = config_.metrics->counter("admission.rejected");
      latency_hist_ = config_.metrics->histogram("admission.latency_us",
                                                 {0.0, 500.0, 50});
    }
    if (config_.slo != nullptr) {
      slo_latency_ = config_.slo->Add(obs::StandardAdmissionLatencySlo());
    }
  }

  /// Full solve: total DRAM needed for n streams at average rate `avg`;
  /// infinity (with the solver's reason) when infeasible.
  DramSolve DramFor(std::int64_t n, BytesPerSecond avg) const;

  /// DramFor for the admission path: direct for Theorem 1, through the
  /// (n, B̄) memo for Theorem 2.
  DramSolve Solve(std::int64_t n, BytesPerSecond avg) const;

  /// Admit's body, shared with TryAdmit.
  AdmissionVerdict Decide(BytesPerSecond bit_rate, std::string* reason);

  /// DRAM for the admitted set plus one stream of `bit_rate` (> 0), from
  /// the table when it applies. Over budget, writes TryAdmit's reason to
  /// a non-null `reason`.
  Bytes SizeWith(BytesPerSecond bit_rate, std::string* reason) const;

  /// Admitted streams sharing one bit-rate.
  struct RateClass {
    BytesPerSecond rate = 0;
    std::int64_t count = 0;
  };

  /// The class of `rate`, or classes_.end().
  std::vector<RateClass>::iterator FindClass(BytesPerSecond rate);
  /// Re-derives total_rate_ from the class table.
  void SumRates();

  AdmissionConfig config_;
  std::vector<RateClass> classes_;  ///< live classes, in opening order
  std::int64_t admitted_count_ = 0;
  BytesPerSecond total_rate_ = 0;
  mutable model::SolveMemo<DramSolve> memo_;
  const SizingTable* table_ = nullptr;  ///< not owned
  // Telemetry handles (null when the matching config member is null).
  obs::Counter* attempts_metric_ = nullptr;
  obs::Counter* admitted_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
  obs::HistogramMetric* latency_hist_ = nullptr;
  obs::Slo* slo_latency_ = nullptr;
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_ADMISSION_H_
