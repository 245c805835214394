#include "model/scale_out.h"

#include <algorithm>

#include "common/math_utils.h"

namespace memstream::model {

namespace {

/// DRAM one disk needs for n streams under the configured hierarchy;
/// negative when infeasible.
Bytes DramPerDisk(const ScaleOutConfig& config, std::int64_t n) {
  DeviceProfile disk;
  disk.rate = config.disk_rate;
  disk.latency = config.disk_latency(n);
  if (config.buffer_k_per_disk > 0 && n >= 2) {
    MemsBufferParams params;
    params.k = config.buffer_k_per_disk;
    params.disk = disk;
    params.mems = config.mems;
    auto sized = SolveMemsBuffer(n, config.bit_rate, params);
    if (!sized.ok()) return -1;
    return sized.value().dram_total;
  }
  auto total = TotalBufferSize(n, config.bit_rate, disk);
  if (!total.ok()) return -1;
  return total.value();
}

}  // namespace

Result<ScaleOutPlan> PlanScaleOut(const ScaleOutConfig& config) {
  if (!config.disk_latency) {
    return Status::InvalidArgument("disk_latency function is required");
  }
  if (config.num_disks < 1) {
    return Status::InvalidArgument("num_disks must be >= 1");
  }
  if (config.bit_rate <= 0) {
    return Status::InvalidArgument("bit_rate must be > 0");
  }
  if (config.dram_budget <= 0) {
    return Status::InvalidArgument("dram_budget must be > 0");
  }
  if (config.buffer_k_per_disk > 0 && config.mems.rate <= 0) {
    return Status::InvalidArgument("mems profile required for buffering");
  }

  const std::int64_t cap =
      MaxStreamsBandwidthBound(config.disk_rate, config.bit_rate);
  if (cap < 1) return Status::Infeasible("bit_rate saturates one disk");

  const Bytes per_disk_budget =
      config.dram_budget / static_cast<double>(config.num_disks);
  auto fits = [&](std::int64_t n) {
    const Bytes dram = DramPerDisk(config, n);
    return dram >= 0 && dram <= per_disk_budget;
  };
  auto best = LargestTrue(fits, 1, cap);
  if (!best.ok()) {
    return Status::Infeasible("not even one stream per disk fits");
  }

  ScaleOutPlan plan;
  plan.streams_per_disk = best.value();
  plan.total_streams = plan.streams_per_disk * config.num_disks;
  plan.dram_per_disk = DramPerDisk(config, plan.streams_per_disk);
  plan.dram_total =
      plan.dram_per_disk * static_cast<double>(config.num_disks);
  plan.mems_devices_total =
      config.buffer_k_per_disk * config.num_disks;
  plan.disk_utilization =
      static_cast<double>(plan.streams_per_disk) * config.bit_rate /
      config.disk_rate;
  return plan;
}

}  // namespace memstream::model
