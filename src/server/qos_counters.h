// Shared QoS counters: the underflow/overflow/violation tallies every
// simulated server used to carry as four copy-pasted report fields. One
// struct keeps the farm/facade aggregation in one place and gives the
// online QoS auditor a single slot to deposit its violation count into.

#ifndef MEMSTREAM_SERVER_QOS_COUNTERS_H_
#define MEMSTREAM_SERVER_QOS_COUNTERS_H_

#include <cstdint>

#include "common/units.h"
#include "server/stream_batch.h"

namespace memstream::server {

/// Per-run QoS tallies, embedded as `qos` in every server report.
struct QosCounters {
  std::int64_t underflow_events = 0;  ///< playout buffer ran dry
  Seconds underflow_time = 0;         ///< summed across read streams
  std::int64_t overflow_events = 0;   ///< staging buffer overran (writes)
  Seconds overflow_time = 0;
  /// Invariant breaches found by the attached obs::QosAuditor (0 when no
  /// auditor was wired in).
  std::int64_t violations = 0;

  bool operator==(const QosCounters&) const = default;

  /// Folds a playout stream's jitter tallies in; take them as of the
  /// horizon (PlaybackBatch::UnderflowsAt) so trailing underflow time is
  /// accrued.
  void AbsorbPlayback(const UnderflowTally& tally) {
    underflow_events += tally.events;
    underflow_time += tally.time;
  }

  /// Folds a recording stream's drop tallies in.
  void AbsorbRecording(const RecordingView& view) {
    overflow_events += view.overflow_events();
    overflow_time += view.overflow_time();
  }

  /// Farm/facade aggregation across per-server reports.
  void Merge(const QosCounters& other) {
    underflow_events += other.underflow_events;
    underflow_time += other.underflow_time;
    overflow_events += other.overflow_events;
    overflow_time += other.overflow_time;
    violations += other.violations;
  }

  /// True when the run met every audited and simulated QoS target.
  bool clean() const {
    return underflow_events == 0 && overflow_events == 0 && violations == 0;
  }
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_QOS_COUNTERS_H_
