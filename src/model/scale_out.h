// Multi-disk scale-out planning. A production media server stripes its
// catalog over a farm of disks (the disk-array work the paper builds on
// in §6 — Chervenak & Patterson, DASD Dancing); with balanced stream
// placement each disk runs its own time cycle and the analysis of one
// disk (plus its optional per-disk MEMS buffer bank) applies
// independently. The planner maximizes farm throughput under a shared
// DRAM budget.

#ifndef MEMSTREAM_MODEL_SCALE_OUT_H_
#define MEMSTREAM_MODEL_SCALE_OUT_H_

#include <cstdint>

#include "common/status.h"
#include "model/mems_buffer.h"
#include "model/profiles.h"
#include "model/timecycle.h"

namespace memstream::model {

/// Farm description.
struct ScaleOutConfig {
  std::int64_t num_disks = 4;
  BytesPerSecond disk_rate = 300 * kMBps;
  LatencyFn disk_latency;       ///< per-disk elevator latency, required
  BytesPerSecond bit_rate = 1 * kMBps;
  Bytes dram_budget = 5 * kGB;  ///< shared across the farm
  /// Per-disk MEMS buffer bank; 0 disables buffering.
  std::int64_t buffer_k_per_disk = 0;
  DeviceProfile mems;           ///< used when buffer_k_per_disk > 0
};

/// Planned farm operating point.
struct ScaleOutPlan {
  std::int64_t streams_per_disk = 0;
  std::int64_t total_streams = 0;
  Bytes dram_per_disk = 0;   ///< DRAM needed by one disk's streams
  Bytes dram_total = 0;
  std::int64_t mems_devices_total = 0;
  double disk_utilization = 0;  ///< bandwidth fraction per disk
};

/// Largest balanced stream count: maximizes per-disk streams such that
/// num_disks * dram_per_disk fits the budget (Theorem 1, or Theorem 2
/// when a per-disk buffer bank is configured).
Result<ScaleOutPlan> PlanScaleOut(const ScaleOutConfig& config);

}  // namespace memstream::model

#endif  // MEMSTREAM_MODEL_SCALE_OUT_H_
