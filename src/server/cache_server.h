// Streaming server with a MEMS cache (§3.2): cached streams are serviced
// from the MEMS bank, the rest from the disk, each side under its own
// time cycle. The bank is managed striped (lock-step, Theorem 3) or
// replicated (independent devices, Theorem 4).

#ifndef MEMSTREAM_SERVER_CACHE_SERVER_H_
#define MEMSTREAM_SERVER_CACHE_SERVER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/status.h"
#include "device/disk.h"
#include "device/disk_scheduler.h"
#include "device/mems_device.h"
#include "fault/degradation.h"
#include "fault/fault_injector.h"
#include "model/mems_cache.h"
#include "obs/metrics.h"
#include "obs/qos_auditor.h"
#include "obs/timeline.h"
#include "server/qos_counters.h"
#include "server/stream_batch.h"
#include "server/timecycle_server.h"
#include "sim/fifo_lane.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::server {

/// A stream serviced by the cache server. `cached` selects the side;
/// `offset`/`extent` address the disk for uncached streams and the bank's
/// logical cached-content space for cached ones.
struct CacheStreamSpec {
  std::int64_t id = 0;
  BytesPerSecond bit_rate = 0;
  bool cached = false;
  Bytes offset = 0;
  Bytes extent = 0;
  /// Disk-resident copy of a cached stream's content, used when
  /// degradation falls the stream back to the disk path (striped bank
  /// lost a device). backing_extent == 0 means no disk copy: the stream
  /// must be shed instead of falling back. Ignored for uncached streams.
  Bytes backing_offset = 0;
  Bytes backing_extent = 0;
};

/// Knobs of the cache server. Obtain the cycles from model::IoCycleLength
/// (disk side, Theorem 1 with the n_disk streams) and from Theorems 3/4's
/// sizing (cache side: cycle = S_mems-dram / B̄).
struct CacheServerConfig {
  Seconds disk_cycle = 1.0;
  Seconds mems_cycle = 0.5;
  model::CachePolicy policy = model::CachePolicy::kStriped;
  device::SchedulerPolicy disk_policy = device::SchedulerPolicy::kCLook;
  bool deterministic = true;
  std::uint64_t seed = 42;
  /// Optional telemetry: per-side cycle-slack histograms, per-stream
  /// occupancy, run summary gauges. Null (the default) costs one pointer
  /// test per update site. Not owned; must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional online QoS auditor. Register the streams in spec order:
  /// uncached streams with domain kDisk, cached streams with domain
  /// kMems (replicated policy: device = position-among-cached mod k;
  /// striped: device 0, the lock-step cycle closes with device -1), and
  /// Seal() before Run(). Not owned.
  obs::QosAuditor* auditor = nullptr;
  /// Optional timeline recorder: per-stream DRAM occupancy. Not owned.
  obs::TimelineRecorder* timelines = nullptr;
  /// Optional fault injection: the plan's device faults are applied to
  /// the bank (tip loss, fail, repair) and disk IOs pay the spike
  /// penalty. Not owned; must outlive the server.
  fault::FaultInjector* faults = nullptr;
  /// Optional graceful degradation: on every device fault the manager
  /// re-solves the Theorem 3/4 sizing for the degraded bank and the
  /// server applies the verdict — reshape the MEMS cycle, shed the
  /// fewest streams (re-admitting them on repair), or fall cached
  /// streams back to the disk path. Null = faults hit an unmanaged
  /// server (the ablation baseline). Not owned.
  const fault::DegradationManager* degradation = nullptr;
  /// DRAM-bound factor the auditor was registered with (bound =
  /// factor * B̄ * cycle); re-plans resize the audited bounds with the
  /// same factor. 0 disables bound updates.
  double dram_bound_factor = 2.0;
  /// Optional per-stream lifecycle journal. Streams self-register at
  /// Create (cached streams under the Theorem-3/4 MEMS-cycle envelope,
  /// disk streams under Theorem 1's); degradation verdicts land as
  /// kShed / kReadmitted / kDegraded transitions. Not owned.
  obs::StreamJournal* journal = nullptr;
  /// Optional SLO monitor: "cycle_slack" and "underflow" per cycle plus
  /// "availability" (shed streams burn the budget). Not owned.
  obs::SloMonitor* slo = nullptr;
};

/// Post-run statistics, split by side.
struct CacheServerReport {
  std::int64_t disk_cycles = 0;
  std::int64_t disk_overruns = 0;
  Seconds disk_busy = 0;
  std::int64_t mems_cycles = 0;
  std::int64_t mems_overruns = 0;
  Seconds mems_busy = 0;  ///< summed across devices
  std::int64_t ios_completed = 0;
  QosCounters qos;  ///< underflows/violations
  Bytes peak_dram_demand = 0;
  Seconds horizon = 0;
  double disk_utilization = 0;
  double mems_utilization = 0;  ///< mean across devices
};

/// The cache server. Owns the MEMS bank; the disk is borrowed (and may be
/// null when every stream is cached).
class CacheStreamingServer {
 public:
  static Result<CacheStreamingServer> Create(
      device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
      std::vector<CacheStreamSpec> streams, const CacheServerConfig& config,
      sim::TraceLog* trace = nullptr);

  /// Simulates `duration` seconds. May be called once.
  Status Run(Seconds duration);

  const CacheServerReport& report() const { return report_; }
  /// Playout session of the i-th stream (spec order).
  StreamView session(std::size_t i) const { return play_.view(i); }
  std::size_t num_streams() const { return play_.size(); }

 private:
  CacheStreamingServer(device::DiskDrive* disk,
                       std::vector<device::MemsDevice> bank,
                       std::vector<CacheStreamSpec> streams,
                       const CacheServerConfig& config,
                       sim::TraceLog* trace);

  void RunDiskCycle(Seconds deadline);
  void RunStripedCycle(Seconds deadline);
  void RunReplicatedCycle(std::size_t dev, Seconds deadline);

  /// Where a completion came from: the disk, the striped bank's
  /// lock-step cycle, or replicated device `source` (>= 0).
  static constexpr std::int32_t kDiskSource = -1;
  static constexpr std::int32_t kStripedSource = -2;

  /// One IO completion (a deposit into the stream's buffer) or, when
  /// traced, a cycle-end marker, queued on its source's lane.
  struct Completion {
    enum Kind : std::uint8_t { kIo, kCycleEnd };
    Kind kind = kIo;
    std::int32_t source = kDiskSource;
    std::size_t stream = 0;
    Bytes bytes = 0;
    Seconds service = 0;   ///< IO service time; cycle busy for kCycleEnd
    Seconds boundary = 0;  ///< playback may start from here
  };
  /// The single place an IO completion takes effect, at its done time
  /// (the simulator clock): deposit, telemetry, trace records, and the
  /// playback start of a stream that is not yet playing.
  void ApplyCompletion(const Completion& c);
  std::string_view ActorOf(std::int32_t source) const;

  // --- fault / degradation machinery ---

  /// Where degradation placed a cached stream.
  enum class Placement { kCache, kDisk, kShed };

  /// Reacts to one device-scoped fault event at its simulated time.
  void ApplyFaultEvent(const fault::FaultEvent& e);
  /// Re-solves the plan for the current bank state and applies it.
  void ApplyReplan(const fault::FaultEvent& cause);
  /// Moves cached stream `i` to `target`, with ledger + auditor updates.
  void TransitionStream(std::size_t i, Placement target);
  /// Tops stream `i`'s buffer up to `target_level` (emergency prefetch
  /// from the degraded plan's slack; not an audited scheduled IO).
  void CushionDeposit(std::size_t i, Bytes target_level);
  /// Re-arms stream `i`'s audited DRAM bound for its new cycle domain:
  /// the current level, plus the new double-buffer allowance, plus one
  /// `carry_cycle`-sized deposit the old schedule may still have in
  /// flight (deposits land at IO completion, after the re-plan ran).
  void SetTransitionBound(std::size_t i, Seconds cycle, Seconds carry_cycle);
  /// Rebuilds the per-device replicated assignment over alive devices
  /// and restarts any cycle loop that went idle.
  void RestartServiceLoops();
  /// Offset/extent of stream `i`'s current content location (backing
  /// copy while a cached stream is disk-fallback placed).
  Bytes EffOffset(std::size_t i) const;
  Bytes EffExtent(std::size_t i) const;

  device::DiskDrive* disk_;
  std::vector<device::MemsDevice> bank_;
  std::vector<CacheStreamSpec> streams_;
  CacheServerConfig config_;
  sim::TraceLog* trace_;
  std::string disk_name_;                ///< trace actors, resolved once
  std::vector<std::string> bank_names_;
  sim::Simulator sim_;
  Rng rng_;
  PlaybackBatch play_;  ///< SoA session state, index == stream index
  std::vector<std::size_t> disk_streams_;   ///< indices into streams_
  std::vector<std::size_t> cache_streams_;  ///< indices into streams_
  std::vector<Bytes> play_cursor_;
  std::vector<Seconds> device_busy_;  ///< per MEMS device
  std::int64_t last_head_offset_ = 0;
  CycleArena arena_;  ///< per-disk-cycle scratch (batch + order)
  sim::FifoLane<Completion> disk_lane_;
  /// One lane per replicated device (one for the striped cycle): each
  /// device's completions are in time order, the bank's are not.
  std::vector<sim::FifoLane<Completion>> mems_lanes_;
  sim::FifoLane<PlaybackStart> starts_;
  CacheServerReport report_;
  bool ran_ = false;
  // Degradation state (all no-ops when config_.faults is null).
  std::vector<bool> device_alive_;      ///< per MEMS device
  std::vector<Placement> placement_;    ///< per stream (kCache if cached)
  std::vector<std::vector<std::size_t>> replicated_assign_;  ///< per device
  std::vector<bool> device_cycle_running_;  ///< replicated loop active
  bool striped_running_ = false;
  bool disk_running_ = false;
  bool cache_halted_ = false;  ///< striped content lost / bank dead
  Seconds horizon_ = 0;
  /// Per-stream audited DRAM bound mirror: re-plans re-derive the total
  /// budget as the sum of the per-stream sizings they just installed.
  std::vector<Bytes> audited_bound_;
  // Telemetry handles (null when config_.metrics is null).
  obs::HistogramMetric* disk_slack_hist_ = nullptr;
  obs::HistogramMetric* mems_slack_hist_ = nullptr;
  obs::Counter* disk_cycles_metric_ = nullptr;
  obs::Counter* mems_cycles_metric_ = nullptr;
  obs::Counter* ios_metric_ = nullptr;
  std::vector<obs::TimeWeightedGauge*> dram_occupancy_;  ///< per stream
  // Timeline handles (null when config_.timelines is null).
  std::vector<obs::TimelineSeries*> dram_series_;  ///< per stream
  // Journal/SLO handles (null / -1 when the hooks are off).
  obs::StreamJournal* journal_ = nullptr;
  std::vector<std::ptrdiff_t> jslot_;      ///< per stream
  std::vector<std::int64_t> uf_seen_;      ///< underflows already journaled
  obs::Slo* slo_underflow_ = nullptr;
  obs::Slo* slo_slack_ = nullptr;
  obs::Slo* slo_availability_ = nullptr;

  /// Cycle-end SLO/journal bookkeeping: slack outcome, underflow delta
  /// scan, and the availability sample (shed streams burn the budget).
  void ObserveCycleOutcomes(Seconds now, bool overrun);
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_CACHE_SERVER_H_
