// Sharded farm executor: the scale-out study the ROADMAP's north star
// asks for. One simulated time-cycle server per shard node, driven in
// parallel on exp::SweepRunner under its determinism contract, with a
// farm-level admission router (farm/router.h) deciding which shard each
// stream lands on and a fault::FaultPlan failing/repairing whole nodes.
//
// Execution model — one admission wave, then epochs between fault
// events:
//  - The t = 0 wave routes every offer through the router, whose
//    shards all answer from one shared Theorem-1 sizing table built for
//    the farm's bit rate. Shards that no title's candidate set links
//    form independent shard groups (farm/router.h, GroupTitles); the
//    groups route in parallel on the same SweepRunner, each in offer
//    order, so the admitted set and the stream ids are those of one
//    serial pass.
//  - The run's timeline is cut at every node fail/repair event. Within
//    an epoch each shard's admitted set is constant. Every node is the
//    same disk and every stream has the one bit rate, so a shard-epoch
//    is a pure (resident count, epoch length -> ServerReport) task: the
//    shards of one epoch that hold the same count share one simulation,
//    whose per-stream results are mapped to each shard's own stream ids.
//    SweepRunner executes the distinct counts in parallel and collects
//    the rows in order of each count's lowest shard, which makes the
//    merged farm report byte-identical at any thread count. Each task
//    builds its shard in a reused per-thread workspace
//    (farm/shard_workspace.h) whose state never reaches a result.
//  - At an epoch boundary the orchestrator (single thread) applies the
//    fault events: a failed shard's streams are shed; streams of
//    replicated titles fail over to the least-loaded surviving replica
//    through the router (Theorem-1 headroom re-checked); single-copy
//    titles stay shed until the repair event, then re-admit. Each shard
//    keeps its residents as a sorted id list, as do the shed streams,
//    so an event walks only the streams it touches, in id order.
//  - The shared StreamJournal / SloMonitor / MetricsRegistry are fed
//    only from the orchestrator thread after each epoch barrier, in
//    shard order, from the per-shard reports — never from inside the
//    parallel tasks — so journal event order and slo.* gauges are also
//    thread-count independent.
//
// Modeling notes: a "node" is one fat DiskParameters (a striped array
// collapsed to a single device, the Corollary-2 idiom); each epoch
// restarts the per-shard servers with cold cycle alignment, which is
// the behavior of a real failover anyway (buffers refill on the new
// shard). See docs/FARM.md.

#ifndef MEMSTREAM_FARM_SHARDED_FARM_H_
#define MEMSTREAM_FARM_SHARDED_FARM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "device/disk.h"
#include "exp/sweep_runner.h"
#include "farm/placement.h"
#include "farm/router.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"

namespace memstream::farm {

struct ShardedFarmConfig {
  std::int64_t num_shards = 4;
  std::int64_t num_titles = 1000;
  double zipf_exponent = 1.0;

  PlacementPolicy policy = PlacementPolicy::kConsistentHash;
  std::int64_t replicas = 1;
  std::int64_t virtual_nodes = 64;
  double replication_budget = 0.05;

  /// Admission attempts at t = 0 (titles drawn Zipf(zipf_exponent)).
  std::int64_t offered_streams = 100;
  BytesPerSecond bit_rate = 100 * kKBps;  ///< every stream (the B̄)

  /// One shard node's hardware: a striped array collapsed to one fat
  /// disk (set outer_rate == inner_rate for the uniform model).
  device::DiskParameters node_disk;
  Bytes dram_budget_per_shard = 4 * kGB;

  Seconds duration = 60;
  /// Node failures: kMemsDeviceFail / kMemsDeviceRepair events with
  /// `device` read as the shard index. Other kinds are ignored.
  fault::FaultPlan faults;

  std::uint64_t seed = 42;
  int threads = 0;  ///< SweepRunner threads; 0 = MEMSTREAM_THREADS / hw

  /// Per-shard QoS auditors (Theorem-1 cycle + DRAM invariants).
  bool audit = true;

  /// Optional farm-level telemetry, all fed deterministically from the
  /// orchestrator thread. Not owned.
  obs::StreamJournal* journal = nullptr;
  obs::SloMonitor* slo = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-shard totals across the whole run.
struct FarmShardReport {
  std::int32_t shard = 0;
  std::int64_t streams = 0;        ///< admitted residents at run end
  std::int64_t ios_completed = 0;
  std::int64_t cycle_overruns = 0;
  std::int64_t underflow_events = 0;
  std::int64_t qos_violations = 0;
  std::int64_t failed_over_in = 0; ///< streams that failed over onto this shard
  std::int64_t shed = 0;           ///< shed actions caused by this shard failing
  Bytes peak_dram_demand = 0;      ///< max across epochs
  double utilization = 0;          ///< busy time / time in service
};

/// Merged farm outcome.
struct FarmRunReport {
  std::string policy;
  std::int64_t shards = 0;
  std::int64_t titles = 0;
  std::int64_t total_copies = 0;   ///< placement storage cost
  std::int64_t offered = 0;
  std::int64_t admitted = 0;       ///< admitted in the t=0 wave
  std::int64_t rejected = 0;
  std::int64_t failovers = 0;      ///< shed -> re-admitted on a replica
  std::int64_t shed_actions = 0;
  std::int64_t readmits = 0;       ///< re-admissions (failover + repair)
  std::int64_t ios_completed = 0;
  std::int64_t cycle_overruns = 0;
  std::int64_t underflow_events = 0;
  std::int64_t qos_violations = 0;
  /// Served stream-seconds / admitted stream-seconds over the run; 1.0
  /// when no stream ever went unserved.
  double availability = 1.0;
  Bytes peak_dram_per_shard = 0;   ///< max over shards
  double mean_utilization = 0;
  Seconds duration = 0;
  /// Cost of the shard-epoch sweep; `sweep.tasks` counts simulations,
  /// one per distinct resident count per epoch.
  exp::SweepStats sweep;
  /// Shard-epochs served (up, non-empty shards summed over epochs); the
  /// sweep's simulations gave each one its row.
  std::int64_t shard_epochs = 0;
  std::vector<FarmShardReport> per_shard;
};

/// Runs the farm described by `config` to completion.
Result<FarmRunReport> RunShardedFarm(const ShardedFarmConfig& config);

/// The RunReport "farm" block of a farm run (schema v4, additive).
obs::FarmBlock BuildFarmBlock(const FarmRunReport& report);

}  // namespace memstream::farm

#endif  // MEMSTREAM_FARM_SHARDED_FARM_H_
