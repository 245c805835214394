// MediaServer: the one-call facade over the whole library. Given a mode
// (direct / MEMS buffer / MEMS cache), device presets, and a stream
// population, it sizes the system with the analytical model, builds the
// corresponding simulated server, runs it, and reports both the analytic
// and the observed quantities side by side.

#ifndef MEMSTREAM_SERVER_MEDIA_SERVER_H_
#define MEMSTREAM_SERVER_MEDIA_SERVER_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "device/device_catalog.h"
#include "fault/degradation.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "model/mems_buffer.h"
#include "model/mems_cache.h"
#include "obs/metrics.h"
#include "obs/qos_auditor.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "obs/timeline.h"
#include "server/cache_server.h"
#include "server/mems_pipeline_server.h"
#include "server/timecycle_server.h"
#include "sim/trace.h"

namespace memstream::server {

/// Storage-hierarchy configuration of the server.
enum class ServerMode {
  kDirect,      ///< disk -> DRAM (the paper's baseline)
  kMemsBuffer,  ///< disk -> MEMS bank -> DRAM (§3.1)
  kMemsCache,   ///< popular streams from the MEMS bank, rest from disk
};

const char* ServerModeName(ServerMode mode);

/// Declarative description of a homogeneous-workload server run.
struct MediaServerConfig {
  ServerMode mode = ServerMode::kDirect;
  device::DiskParameters disk = device::FutureDisk2007();
  device::MemsParameters mems = device::MemsG3();
  std::int64_t k = 2;  ///< MEMS devices (buffer or cache size)
  model::CachePolicy cache_policy = model::CachePolicy::kStriped;
  /// Fraction of streams serviced from the cache in kMemsCache mode
  /// (e.g. the Eq. 11 hit rate).
  double cached_fraction_of_streams = 0.5;
  std::int64_t num_streams = 10;
  BytesPerSecond bit_rate = 1 * kMBps;
  Seconds sim_duration = 60;
  bool deterministic = true;
  std::uint64_t seed = 42;
  /// Optional event trace of the simulated server (cycle spans, IO
  /// completions, buffer levels), read back after the run. Not owned;
  /// must outlive the call.
  sim::TraceLog* trace = nullptr;
  /// Optional metrics sink; the chosen server publishes its full
  /// telemetry here. Not owned; must outlive the call.
  obs::MetricsRegistry* metrics = nullptr;
  /// When true (the default), an online obs::QosAuditor is built from
  /// the analytic sizing — cycle lengths, per-stream DRAM bounds (the
  /// executable double-buffer analog, 2·B̄·T of the stream's cycle
  /// domain), and for kMemsBuffer the Eq. 7 / Eq. 8 parameters — and
  /// wired through the simulated server. The result carries it.
  bool audit = true;
  /// Optional timeline recorder: the chosen server records per-stream
  /// DRAM occupancy (and device series where it has them). Not owned;
  /// must outlive the call.
  obs::TimelineRecorder* timelines = nullptr;
  /// Optional fault schedule (empty = fault-free run). The facade builds
  /// a fault::FaultInjector over it and wires it through the chosen
  /// server; the result carries the injector (and its report block).
  fault::FaultPlan fault_plan;
  /// kMemsCache only: when true (the default) a DegradationManager is
  /// built from the run's own analytic sizing, so device faults trigger
  /// online re-planning (reshape / shed-fewest / disk-fallback) and
  /// cached streams get disk-resident backing copies. False = faults
  /// strike an unmanaged server (the ablation baseline).
  bool degrade = true;
  /// Striped repair-to-service delay: time to refill the stripes from
  /// disk after a repair, before cache service resumes.
  Seconds fault_refill_delay = 1.0;
  /// Stream for the injector's structured burst-drop warning (null =
  /// std::cerr). Not owned.
  std::ostream* fault_warn_stream = nullptr;
  /// Optional per-stream lifecycle journal: the chosen server registers
  /// every stream under its analytic DRAM envelope and records
  /// admission, IO deposits, underflows, shed/re-admit verdicts, and
  /// departure. The facade finalizes it at sim_duration and publishes
  /// its stream.* summary to `metrics`; BuildRunReport embeds it as the
  /// "streams" block. Not owned; must outlive the call.
  obs::StreamJournal* journal = nullptr;
  /// Optional SLO monitor: the chosen server (and any admission
  /// controller sharing it) feeds the standard cycle-slack, underflow,
  /// availability, and admission-latency SLOs. The facade publishes the
  /// slo.* gauges to `metrics`; BuildRunReport embeds the "slo" block.
  /// Not owned; must outlive the call.
  obs::SloMonitor* slo = nullptr;
};

/// Analytic sizing and simulated outcome of one run.
struct MediaServerResult {
  // Analytic (model) side.
  Bytes analytic_dram_total = 0;   ///< Theorem 1/2/3/4 total DRAM
  Seconds disk_cycle = 0;
  Seconds mems_cycle = 0;          ///< 0 in kDirect mode
  // Simulated side.
  QosCounters qos;                  ///< underflows + audited violations
  std::int64_t cycle_overruns = 0;  ///< disk + MEMS
  Bytes sim_peak_dram = 0;
  double disk_utilization = 0;
  double mems_utilization = 0;      ///< 0 in kDirect mode
  std::int64_t ios_completed = 0;
  /// The online auditor the run was wired through (null when
  /// config.audit was false): violation counter-examples, audited cycle
  /// tallies, Summary(). Shared so the result stays copyable and
  /// BuildRunReport can embed it.
  std::shared_ptr<obs::QosAuditor> auditor;
  /// The fault injector the run was wired through (null when
  /// config.fault_plan was empty): the finalized faults block —
  /// timeline, re-plans, shed/re-admit ledger, burst-drop accounting —
  /// for BuildRunReport's "faults" object.
  std::shared_ptr<fault::FaultInjector> faults;
};

/// Sizes, builds, simulates, reports. Returns the first infeasibility the
/// model detects (e.g. too many streams for the disk).
Result<MediaServerResult> RunMediaServer(const MediaServerConfig& config);

/// Builds a structured run report: the configuration echo, the analytic
/// sizing, and the simulated outcome side by side, plus a snapshot of
/// `metrics` when given (pass the registry the run wrote into, or null).
obs::RunReport BuildRunReport(const MediaServerConfig& config,
                              const MediaServerResult& result,
                              const obs::MetricsRegistry* metrics = nullptr);

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_MEDIA_SERVER_H_
