// Online QoS auditor: re-checks the paper's real-time invariants while a
// simulated server runs and, on violation, emits a structured
// counter-example instead of a bare counter.
//
// Invariants audited (see docs/THEORY.md for the equations):
//  - non-negative cycle slack on the disk and MEMS sides (Theorems 1/2:
//    every cycle's batch must finish within its cycle length);
//  - exactly one IO of the expected B̄·T bytes per admitted stream per
//    cycle of its domain (the time-cycle schedule itself);
//  - per-stream DRAM occupancy within the Theorem 1/2/3/4 sizing, and
//    the summed occupancy within the total DRAM budget;
//  - the MEMS storage bound 2·N·T_disk·B̄ ≤ k·Size_mems (Eq. 7) and the
//    rational cycle nesting T_mems/T_disk = M/N (Eq. 8), checked once at
//    Seal() time.
//
// Margins (slack, DRAM headroom) are recorded as histograms in an
// optional MetricsRegistry; each violation captures the stream id, the
// cycle index, the expected and observed values, and — when a TraceLog
// is attached — an anchor record appended to the log plus its global
// index, so the counter-example points into the event window around it.
//
// Contracts (PR 1 / PR 2): servers hold a QosAuditor* that defaults to
// null and call through the null-tolerant free helpers below, so an
// unaudited run costs one pointer test per hook site; the audited hot
// path allocates nothing while no violation fires (per-stream state is
// preallocated at Seal(), the violation list is reserved up front).

#ifndef MEMSTREAM_OBS_QOS_AUDITOR_H_
#define MEMSTREAM_OBS_QOS_AUDITOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace memstream::obs {

/// Which audited invariant a violation breaches.
enum class QosInvariant {
  kDiskCycleOverrun,   ///< disk-side cycle busy time exceeded T_disk
  kMemsCycleOverrun,   ///< MEMS-side cycle busy time exceeded T_mems
  kIoCount,            ///< a stream did not get exactly one IO in a cycle
  kIoBytes,            ///< an IO moved a different size than B̄·T
  kDramBound,          ///< per-stream DRAM occupancy above its sizing
  kDramTotalBound,     ///< summed DRAM occupancy above the total budget
  kMemsStorageBound,   ///< Eq. 7: 2·N·T_disk·B̄ > k·Size_mems
  kCycleNesting,       ///< Eq. 8: T_mems/T_disk is not M/N, integer M
};

const char* QosInvariantName(QosInvariant invariant);

/// One structured counter-example.
struct QosViolation {
  QosInvariant invariant = QosInvariant::kDiskCycleOverrun;
  std::int64_t stream_id = -1;   ///< offending stream; -1 for device-level
  std::int64_t cycle_index = -1; ///< cycle of the relevant domain; -1 = n/a
  Seconds time = 0;              ///< simulated time of the observation
  double expected = 0;           ///< the bound that should have held
  double observed = 0;           ///< what was actually seen
  std::string detail;            ///< free-form context
  /// Global index (appended + previously dropped records) of the anchor
  /// note this violation added to the TraceLog; -1 when no log attached.
  std::int64_t trace_index = -1;

  /// "dram_bound: stream 3 cycle 17: observed 2.1e6 > expected 1.8e6 (...)"
  std::string ToString() const;
};

/// Which cycle domain a stream's one-IO-per-cycle invariant lives in.
enum class QosDomain {
  kDisk,  ///< one IO per disk cycle (direct server, pipeline disk side)
  kMems,  ///< one IO per MEMS cycle (cache-server cached streams)
  kNone,  ///< no per-cycle IO audit (EDF, pipeline MEMS side)
};

/// Expected run shape. Zero/empty members disable the related checks.
struct QosAuditorConfig {
  Seconds disk_cycle = 0;      ///< T (or T_disk); 0 = no disk-cycle audit
  Seconds mems_cycle = 0;      ///< T_mems; 0 = no MEMS-cycle audit
  std::int64_t mems_devices = 0;       ///< k (Eq. 7 / Eq. 8 checks)
  Bytes mems_device_capacity = 0;      ///< Size_mems per device (Eq. 7)
  /// True for the §3.1 pipeline, whose MEMS cycles nest inside the disk
  /// cycle: enables the Eq. 7 storage-bound and Eq. 8 nesting checks.
  bool nested_cycles = false;
  Bytes dram_total_bound = 0;  ///< total DRAM budget; 0 = unchecked
  /// Relative tolerance on every comparison (the simulator's event
  /// arithmetic is exact to ~1e-12; boundary deposits may sit exactly on
  /// the bound).
  double tolerance = 1e-6;
  std::size_t max_violations = 64;  ///< retained counter-examples
  MetricsRegistry* metrics = nullptr;  ///< margin histograms; not owned
  sim::TraceLog* trace = nullptr;      ///< counter-example anchors; not owned
};

/// The auditor. Register streams with AddStream() in the server's spec
/// order (hook sites address streams by that dense index), then Seal()
/// before the run starts; the per-cycle hooks are only valid after.
class QosAuditor {
 public:
  explicit QosAuditor(const QosAuditorConfig& config = {});
  QosAuditor(const QosAuditor&) = delete;
  QosAuditor& operator=(const QosAuditor&) = delete;

  /// Makes this auditor a fresh QosAuditor(config) in place: no streams,
  /// counts or violations, and every buffer's capacity kept.
  void Reset(const QosAuditorConfig& config);

  /// Registers an admitted stream. `dram_bound` is the per-stream DRAM
  /// sizing (0 = unchecked); `domain` selects the one-IO-per-cycle
  /// check; `device` is the stream's MEMS device for kMems domains with
  /// per-device cycles (ignored otherwise). Returns the dense index.
  std::size_t AddStream(std::int64_t id, BytesPerSecond bit_rate,
                        Bytes dram_bound, QosDomain domain = QosDomain::kDisk,
                        std::int64_t device = 0);

  /// AddStream() for each of `ids` in order, every one at `bit_rate`
  /// under `dram_bound` in `domain` (device 0), with one resize.
  void AddStreams(std::span<const std::int32_t> ids, BytesPerSecond bit_rate,
                  Bytes dram_bound, QosDomain domain = QosDomain::kDisk);

  /// Freezes the stream set, allocates the per-stream audit state, and
  /// runs the setup-time checks (Eq. 7 storage bound, Eq. 8 nesting).
  /// Idempotent; hooks before Seal() are ignored.
  void Seal();

  std::size_t num_streams() const { return streams_.size(); }
  bool sealed() const { return sealed_; }

  // --- per-cycle hooks (hot path; allocation-free while clean) ---

  /// A disk-side cycle that began at `t0` finished its batch in `busy`.
  /// Checks slack >= 0 and one IO per kDisk-domain stream, then opens
  /// the next disk cycle.
  void EndDiskCycle(Seconds t0, Seconds busy);

  /// A MEMS-side cycle on `device` finished. Same checks for the kMems
  /// streams assigned to that device.
  void EndMemsCycle(std::int64_t device, Seconds t0, Seconds busy);

  /// Stream `index` received one IO of `bytes` in the current cycle of
  /// its domain.
  void RecordIo(std::size_t index, Bytes bytes);

  /// Stream `index`'s DRAM buffer level observed at `now`.
  void RecordDramLevel(std::size_t index, Seconds now, Bytes level);

  // --- online re-planning hooks (src/fault/ degradation) ---
  //
  // A degradation re-plan changes the run shape mid-flight: cycles get a
  // new length, shed streams stop receiving IOs, fallback streams switch
  // domains. The auditor keeps auditing the *new* plan instead of
  // reporting the old one as violated.

  /// Replaces the disk-side cycle length the invariants check against.
  /// Call at a cycle boundary (the in-flight cycle is judged by the new
  /// length).
  void SetDiskCycle(Seconds cycle) { config_.disk_cycle = cycle; }

  /// Replaces the MEMS-side cycle length.
  void SetMemsCycle(Seconds cycle) { config_.mems_cycle = cycle; }

  /// Marks stream `index` shed (inactive) or re-admitted. Inactive
  /// streams are exempt from the one-IO-per-cycle check; a re-admitted
  /// stream gets one grace cycle to rejoin the schedule.
  void SetStreamActive(std::size_t index, bool active);

  /// Moves stream `index` to a new cycle domain (e.g. kMems -> kDisk on
  /// cache fallback) with one grace cycle before the IO-count check
  /// re-arms.
  void SetStreamDomain(std::size_t index, QosDomain domain,
                       std::int64_t device = 0);

  /// Replaces stream `index`'s per-stream DRAM sizing (a re-plan resizes
  /// buffers; 0 disables the check for that stream).
  void SetStreamDramBound(std::size_t index, Bytes dram_bound);

  /// Replaces the total DRAM budget (a re-plan that resizes per-stream
  /// buffers moves the summed budget with them; 0 disables the check).
  void SetDramTotalBound(Bytes bound) {
    config_.dram_total_bound = bound;
    over_total_ = false;
  }

  // --- results ---

  /// All violations seen, including ones past the retention cap.
  std::int64_t total_violations() const { return total_violations_; }
  /// The part of total_violations() RecordDramLevel() found (kDramBound,
  /// kDramTotalBound).
  std::int64_t level_violations() const { return level_violations_; }
  /// The first max_violations counter-examples, in detection order.
  const std::vector<QosViolation>& violations() const { return violations_; }
  std::int64_t disk_cycles_audited() const { return disk_cycles_; }
  std::int64_t mems_cycles_audited() const { return mems_cycles_; }

  /// One-line human summary ("qos: 0 violations over 60 disk cycles").
  std::string Summary() const;

 private:
  struct StreamState {
    std::int64_t id = 0;
    BytesPerSecond bit_rate = 0;
    Bytes dram_bound = 0;
    QosDomain domain = QosDomain::kNone;
    std::int64_t device = 0;
    std::int64_t ios_in_cycle = 0;
    Bytes last_level = 0;
    bool over_bound = false;  ///< hysteresis: inside a DRAM excursion
    bool active = true;       ///< false while shed by degradation
    bool grace = false;       ///< skip one CloseCycle after a re-plan
  };

  void Report(QosInvariant invariant, std::int64_t stream_id,
              std::int64_t cycle_index, Seconds time, double expected,
              double observed, const std::string& detail);
  /// Closes the IO-count accounting for every stream of `domain` (and
  /// `device`, for per-device MEMS cycles) at cycle `cycle_index`.
  void CloseCycle(QosDomain domain, std::int64_t device,
                  std::int64_t cycle_index, Seconds time);

  QosAuditorConfig config_;
  std::vector<StreamState> streams_;
  bool sealed_ = false;
  std::int64_t disk_cycles_ = 0;
  std::int64_t mems_cycles_ = 0;  ///< summed across devices
  std::vector<std::int64_t> mems_cycle_index_;  ///< per device
  Bytes dram_level_sum_ = 0;  ///< running sum of per-stream last levels
  bool over_total_ = false;   ///< hysteresis for the total-DRAM bound
  std::int64_t total_violations_ = 0;
  std::int64_t level_violations_ = 0;
  std::vector<QosViolation> violations_;
  // Telemetry handles (null when config_.metrics is null).
  HistogramMetric* disk_slack_hist_ = nullptr;
  HistogramMetric* mems_slack_hist_ = nullptr;
  HistogramMetric* dram_headroom_hist_ = nullptr;
  Counter* violations_metric_ = nullptr;
  Counter* cycles_metric_ = nullptr;
};

// Null-tolerant hook helpers: the instrumentation idiom is a QosAuditor*
// that defaults to null, so an unaudited hot path costs one pointer test.
inline void EndDiskCycle(QosAuditor* a, Seconds t0, Seconds busy) {
  if (a != nullptr) a->EndDiskCycle(t0, busy);
}
inline void EndMemsCycle(QosAuditor* a, std::int64_t device, Seconds t0,
                         Seconds busy) {
  if (a != nullptr) a->EndMemsCycle(device, t0, busy);
}
inline void RecordIo(QosAuditor* a, std::size_t index, Bytes bytes) {
  if (a != nullptr) a->RecordIo(index, bytes);
}
inline void RecordDramLevel(QosAuditor* a, std::size_t index, Seconds now,
                            Bytes level) {
  if (a != nullptr) a->RecordDramLevel(index, now, level);
}

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_QOS_AUDITOR_H_
