// Direct disk <-> DRAM streaming server under time-cycle IO scheduling
// (the paper's baseline, Theorem 1): in every cycle of length T the disk
// performs exactly one IO of B̄_i * T bytes per stream, reordered by the
// elevator. Read streams deposit into playout sessions (underflow =
// jitter); write streams — the §3.1 extension — drain encoder staging
// buffers (overflow = dropped capture). Executing this schedule in the
// discrete-event simulator validates the analytical sizing: cycles must
// not overrun, no session may underflow, no staging buffer may overflow.

#ifndef MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_
#define MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/status.h"
#include "device/disk.h"
#include "device/disk_scheduler.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/qos_auditor.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "obs/timeline.h"
#include "server/qos_counters.h"
#include "server/stream_batch.h"
#include "sim/fifo_lane.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::server {

/// Direction of a stream relative to the disk.
enum class StreamDirection {
  kRead,   ///< playback: disk -> DRAM -> client
  kWrite,  ///< recording: encoder -> DRAM staging -> disk
};

/// A stream to be serviced: sequential access to `extent` bytes placed
/// at `disk_offset` (wrapping, so any simulation horizon works).
struct StreamSpec {
  std::int64_t id = 0;
  BytesPerSecond bit_rate = 0;
  Bytes disk_offset = 0;
  Bytes extent = 0;
  StreamDirection direction = StreamDirection::kRead;
};

/// Knobs of the direct server.
struct DirectServerConfig {
  Seconds cycle = 1.0;  ///< the IO cycle T (from model::IoCycleLength)
  device::SchedulerPolicy policy = device::SchedulerPolicy::kCLook;
  /// Staging allocation per write stream, in IO-sized units; the
  /// double-buffered schedule needs at most ~2 (see the validation
  /// tests), so the default leaves a little slack.
  double staging_ios = 2.2;
  /// §3.1.2: "Spare bandwidth, if available, can be used for
  /// non-real-time traffic." When > 0, cycle slack left after the
  /// real-time batch is filled with best-effort IOs of this size at
  /// random positions, admitted only while a worst-case-latency IO still
  /// fits before the cycle boundary (so real-time streams are never put
  /// at risk).
  Bytes best_effort_io = 0;
  /// Deterministic mode charges the expected rotational delay; otherwise
  /// the delay is sampled per IO from `seed`.
  bool deterministic = true;
  std::uint64_t seed = 42;
  /// Optional telemetry: cycle-slack histogram, per-stream occupancy,
  /// run summary gauges. Null (the default) compiles the hooks down to a
  /// pointer test per site. Not owned; must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional online QoS auditor. Register the streams (spec order, read
  /// streams domain kDisk) and Seal() before Run(); the server drives the
  /// per-cycle hooks. Null costs one pointer test per hook site. Not
  /// owned.
  obs::QosAuditor* auditor = nullptr;
  /// Optional timeline recorder: per-stream DRAM occupancy and disk
  /// cycle-utilization series. Null costs one pointer test per sample.
  /// Not owned.
  obs::TimelineRecorder* timelines = nullptr;
  /// Optional fault injection: disk IOs pay the plan's latency-spike
  /// penalty; device-scoped faults are observed only (no MEMS bank).
  /// Not owned; must outlive the server.
  fault::FaultInjector* faults = nullptr;
  /// Optional per-stream lifecycle journal. The server self-registers
  /// its streams at Create (read streams under the Theorem-1 2*B*T
  /// envelope, write streams under their staging allocation) and feeds
  /// IO/underflow records from the existing cycle callbacks — no new
  /// sim events, so event order and bench output are unchanged. Not
  /// owned; must outlive the server.
  obs::StreamJournal* journal = nullptr;
  /// Optional SLO monitor: feeds the standard "underflow" (per
  /// stream-cycle) and "cycle_slack" (per disk cycle) SLOs. Not owned.
  obs::SloMonitor* slo = nullptr;
};

/// Post-run statistics common to all the simulated servers.
struct ServerReport {
  std::int64_t cycles = 0;
  std::int64_t ios_completed = 0;
  std::int64_t cycle_overruns = 0;   ///< cycles whose busy time exceeded T
  Seconds max_cycle_busy = 0;
  Seconds total_busy = 0;            ///< device busy time (for utilization)
  Seconds horizon = 0;               ///< simulated duration
  QosCounters qos;                   ///< underflows/overflows/violations
  Bytes peak_buffer_demand = 0;      ///< sum of per-session peak levels
  double device_utilization = 0;     ///< total_busy / horizon
  std::int64_t best_effort_ios = 0;  ///< slack-filling IOs serviced
  Bytes best_effort_bytes = 0;
};

/// The baseline server. Construction validates the stream set against the
/// disk capacity; Run() executes the schedule and fills the report.
class DirectStreamingServer {
 public:
  static Result<DirectStreamingServer> Create(
      device::DiskDrive* disk, std::vector<StreamSpec> streams,
      const DirectServerConfig& config, sim::TraceLog* trace = nullptr);

  /// Simulates `duration` seconds of service. May be called once.
  Status Run(Seconds duration);

  const ServerReport& report() const { return report_; }

  /// Playout session of the i-th *read* stream (in spec order).
  StreamView session(std::size_t i) const { return play_.view(i); }
  std::vector<StreamView> play_sessions() const { return play_.views(); }
  std::vector<RecordingView> record_sessions() const {
    return record_.views();
  }
  std::size_t num_streams() const { return streams_.size(); }

 private:
  DirectStreamingServer(device::DiskDrive* disk,
                        std::vector<StreamSpec> streams,
                        const DirectServerConfig& config,
                        sim::TraceLog* trace);

  void RunCycle(Seconds deadline);

  /// One disk IO completion (or, when traced, the cycle-end marker),
  /// queued on the completion lane for its done time.
  struct Completion {
    enum Kind : std::uint8_t { kIo, kCycleEnd };
    Kind kind = kIo;
    std::size_t stream = 0;  ///< spec index
    Bytes bytes = 0;
    Seconds service = 0;     ///< IO service time; cycle busy for kCycleEnd
    Seconds boundary = 0;    ///< playback may start from here (reads)
  };
  /// The single place an IO completion takes effect: buffer deposit or
  /// staging drain at `done`, telemetry, and its trace records.
  void ApplyCompletion(Seconds done, const Completion& c);

  device::DiskDrive* disk_;
  std::vector<StreamSpec> streams_;
  DirectServerConfig config_;
  sim::TraceLog* trace_;
  std::string disk_name_;  ///< trace actor, resolved once
  sim::Simulator sim_;
  Rng rng_;
  PlaybackBatch play_;     ///< SoA state of the read streams
  RecordingBatch record_;  ///< SoA state of the write streams
  /// Per stream: index into play_ or record_.
  std::vector<std::size_t> session_index_;
  std::vector<Bytes> play_cursor_;  ///< per-stream offset within extent
  std::int64_t last_head_offset_ = 0;
  CycleArena arena_;        ///< per-cycle scratch (batch + order)
  Seconds horizon_ = 0;     ///< Run() duration; bounds inline effects
  /// Completions apply inline in the cycle loop instead of through the
  /// lanes (untraced runs; see Run()).
  bool inline_ = false;
  sim::FifoLane<Completion> completions_;
  sim::FifoLane<PlaybackStart> starts_;
  ServerReport report_;
  bool ran_ = false;
  // Telemetry handles (null when config_.metrics is null).
  obs::HistogramMetric* slack_hist_ = nullptr;
  obs::Counter* cycles_metric_ = nullptr;
  obs::Counter* overruns_metric_ = nullptr;
  obs::Counter* ios_metric_ = nullptr;
  std::vector<obs::TimeWeightedGauge*> play_occupancy_;  ///< per session
  std::vector<obs::TimeWeightedGauge*> staging_occupancy_;
  // Timeline handles (null when config_.timelines is null).
  std::vector<obs::TimelineSeries*> play_series_;  ///< per session
  obs::TimelineSeries* disk_util_series_ = nullptr;
  // Journal/SLO handles (null / empty when the hooks are off). Slots are
  // resolved once at construction; per-cycle underflow deltas come from
  // comparing the batch counters against uf_seen_ (preallocated).
  obs::StreamJournal* journal_ = nullptr;
  std::vector<std::ptrdiff_t> jslot_;        ///< per stream (spec order)
  std::vector<std::int64_t> uf_seen_;        ///< per play session
  obs::Slo* slo_underflow_ = nullptr;
  obs::Slo* slo_slack_ = nullptr;

  void ObserveCycleOutcomes(Seconds now, bool overrun);
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_
