// Structured run report: one JSON document per simulated run that places
// the analytical model's predictions and the simulator's observed
// telemetry side by side, plus an optional embedded metrics snapshot.
// server::BuildRunReport() fills one from a MediaServer run; tests and
// downstream tooling parse the JSON (schema in docs/OBSERVABILITY.md).

#ifndef MEMSTREAM_OBS_RUN_REPORT_H_
#define MEMSTREAM_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/qos_auditor.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "obs/timeline.h"

namespace memstream::obs {

/// Schema version of the emitted JSON; bump on breaking layout changes.
/// v2 adds "qos", "timelines" and "trace_dropped_records" (all optional,
/// so v1 consumers keep working on v2 documents). v3 adds the optional
/// "faults" block (injected-fault timeline, shed/re-admit records and
/// degradation counters). v4 adds the optional "streams" block (per-
/// stream lifecycle journal) and "slo" block (SLO attainment and error
/// budgets).
inline constexpr std::int64_t kRunReportSchemaVersion = 4;

/// One entry of the injected-fault timeline: what happened, when, to
/// which device, and what the degradation manager did about it.
struct FaultTimelineEntry {
  Seconds time = 0;
  std::string kind;            ///< FaultKindName of the injected fault
  std::int64_t device = -1;    ///< affected MEMS device; -1 = not device-scoped
  double magnitude = 0;        ///< always 0: fail/repair carry no severity
  std::string action;          ///< re-plan outcome ("reshape", "shed 2", ...)
};

/// One stream the degradation manager shed, and when (if ever) it was
/// re-admitted. `readmit_time` < 0 means still shed at run end.
struct ShedRecord {
  std::int64_t stream_id = -1;
  Seconds shed_time = 0;
  std::int64_t shed_cycle = -1;  ///< cycle index the shed took effect in
  Seconds readmit_time = -1;
};

/// Fault-injection summary embedded in the run report ("faults" block).
/// Plain data: filled by the fault layer (which depends on obs, not the
/// other way around).
struct FaultsBlock {
  std::int64_t events = 0;    ///< faults that became active
  std::int64_t repairs = 0;   ///< faults that cleared
  std::int64_t replans = 0;   ///< degradation re-plans applied
  std::int64_t sheds = 0;     ///< stream shed actions
  std::int64_t readmits = 0;  ///< re-admissions after repair
  /// TraceLog records evicted while >= 1 fault was active (satellite for
  /// "did the burst outrun the ring buffer").
  std::int64_t dropped_during_burst = 0;
  Seconds total_shed_time = 0;  ///< summed shed duration across streams
  std::vector<FaultTimelineEntry> timeline;
  std::vector<ShedRecord> shed_streams;
};

/// Per-shard slice of a farm run ("farm.per_shard" array entries).
struct FarmShardEntry {
  std::int64_t shard = 0;
  std::int64_t streams = 0;          ///< admitted residents at run end
  std::int64_t ios = 0;
  std::int64_t underflow_events = 0;
  std::int64_t cycle_overruns = 0;
  std::int64_t qos_violations = 0;
  std::int64_t failed_over_in = 0;   ///< streams re-routed onto this shard
  std::int64_t shed = 0;             ///< sheds caused by this shard failing
  Bytes peak_dram_bytes = 0;
  double utilization = 0;
};

/// Farm-run summary embedded as the "farm" block (schema v4, additive —
/// v4 consumers that don't know the block keep working). Plain data,
/// filled by the farm layer (farm::BuildFarmBlock).
struct FarmBlock {
  std::string policy;            ///< placement policy name
  std::int64_t shards = 0;
  std::int64_t titles = 0;
  std::int64_t total_copies = 0; ///< placement storage cost in titles
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t failovers = 0;    ///< shed -> re-admitted on a replica
  std::int64_t shed = 0;
  std::int64_t readmits = 0;
  double availability = 1.0;     ///< served / admitted stream-seconds
  Bytes peak_dram_per_shard = 0; ///< max over shards
  double mean_utilization = 0;
  std::vector<FarmShardEntry> per_shard;
};

/// One run's worth of side-by-side analytic and simulated quantities.
/// `config` echoes the knobs as strings; `analytic` and `simulated` are
/// numeric so tooling can diff prediction against observation directly.
struct RunReport {
  std::string title;

  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, double>> analytic;
  std::vector<std::pair<std::string, double>> simulated;

  /// Optional: embedded into the JSON as a "metrics" array when set.
  /// Not owned; must outlive ToJson()/WriteFile().
  const MetricsRegistry* metrics = nullptr;

  /// Optional: embedded as a "qos" object (violation counter-examples and
  /// audited-cycle counts) when set. Not owned.
  const QosAuditor* qos = nullptr;

  /// Optional: embedded as a "timelines" array (downsampled series) when
  /// set. Not owned.
  const TimelineRecorder* timelines = nullptr;

  /// Optional: embedded as a "faults" object when set. Not owned.
  const FaultsBlock* faults = nullptr;

  /// Optional: embedded as a "farm" object (per-shard and aggregate
  /// scale-out outcome) when set. Not owned.
  const FarmBlock* farm = nullptr;

  /// Optional: embedded as a "streams" object (per-stream lifecycle
  /// journal: phases, outcome counts, occupancy percentiles, envelope
  /// headroom, first lifecycle events) when set. Not owned.
  const StreamJournal* streams = nullptr;

  /// Optional: embedded as a "slo" object (per-SLO attainment, error
  /// budget remaining, burn rate) when set. Not owned.
  const SloMonitor* slo = nullptr;

  /// TraceLog records evicted by the bounded ring buffer; surfaced so
  /// truncation is no longer silent. -1 = no trace attached to the run.
  std::int64_t trace_dropped_records = -1;

  void AddConfig(const std::string& key, const std::string& value) {
    config.emplace_back(key, value);
  }
  void AddAnalytic(const std::string& key, double value) {
    analytic.emplace_back(key, value);
  }
  void AddSimulated(const std::string& key, double value) {
    simulated.emplace_back(key, value);
  }

  /// Serializes the report as a JSON object:
  /// {"schema_version":1,"title":...,"config":{...},
  ///  "analytic":{...},"simulated":{...},"metrics":[...]}
  std::string ToJson() const;

  /// Writes ToJson() to `path` (conventionally <name>.report.json).
  Status WriteFile(const std::string& path) const;
};

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_RUN_REPORT_H_
