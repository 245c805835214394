#include "server/farm.h"

#include <algorithm>
#include <vector>

namespace memstream::server {

Result<FarmReport> RunFarm(const FarmConfig& config) {
  if (config.num_disks < 1) {
    return Status::InvalidArgument("num_disks must be >= 1");
  }
  if (config.streams_per_disk < 1) {
    return Status::InvalidArgument("streams_per_disk must be >= 1");
  }
  if (config.cycle <= 0) {
    return Status::InvalidArgument("cycle must be > 0");
  }

  FarmReport farm;
  farm.disks = config.num_disks;
  for (std::int64_t d = 0; d < config.num_disks; ++d) {
    device::DiskParameters params = config.disk;
    params.name += '#';
    params.name += std::to_string(d);
    auto disk = device::DiskDrive::Create(params);
    MEMSTREAM_RETURN_IF_ERROR(disk.status());

    std::vector<StreamSpec> streams;
    const Bytes io = config.bit_rate * config.cycle;
    const Bytes stride =
        disk.value().Capacity() * 0.9 /
        static_cast<double>(config.streams_per_disk);
    for (std::int64_t i = 0; i < config.streams_per_disk; ++i) {
      streams.push_back({d * config.streams_per_disk + i, config.bit_rate,
                         stride * static_cast<double>(i),
                         std::max(stride, 2 * io)});
    }

    DirectServerConfig per_disk;
    per_disk.cycle = config.cycle;
    per_disk.deterministic = config.deterministic;
    per_disk.seed = config.seed + static_cast<std::uint64_t>(d);
    per_disk.journal = config.journal;
    per_disk.slo = config.slo;
    auto server =
        DirectStreamingServer::Create(&disk.value(), streams, per_disk);
    MEMSTREAM_RETURN_IF_ERROR(server.status());
    MEMSTREAM_RETURN_IF_ERROR(server.value().Run(config.duration));

    const ServerReport& report = server.value().report();
    farm.total_streams += config.streams_per_disk;
    farm.ios_completed += report.ios_completed;
    farm.cycle_overruns += report.cycle_overruns;
    farm.qos.Merge(report.qos);
    farm.peak_dram_demand += report.peak_buffer_demand;
    farm.mean_disk_utilization +=
        report.device_utilization / static_cast<double>(config.num_disks);
    FarmDiskStats stats;
    stats.disk = d;
    stats.streams = config.streams_per_disk;
    stats.ios_completed = report.ios_completed;
    stats.cycle_overruns = report.cycle_overruns;
    stats.underflow_events = report.qos.underflow_events;
    stats.peak_dram_demand = report.peak_buffer_demand;
    stats.utilization = report.device_utilization;
    farm.per_disk.push_back(stats);
  }
  return farm;
}

obs::FarmBlock ToFarmBlock(const FarmReport& report) {
  obs::FarmBlock block;
  block.policy = "uniform_fanout";
  block.shards = report.disks;
  block.offered = report.total_streams;
  block.admitted = report.total_streams;
  block.mean_utilization = report.mean_disk_utilization;
  for (const FarmDiskStats& d : report.per_disk) {
    obs::FarmShardEntry e;
    e.shard = d.disk;
    e.streams = d.streams;
    e.ios = d.ios_completed;
    e.underflow_events = d.underflow_events;
    e.cycle_overruns = d.cycle_overruns;
    e.qos_violations = 0;
    e.peak_dram_bytes = d.peak_dram_demand;
    e.utilization = d.utilization;
    block.per_shard.push_back(e);
    block.peak_dram_per_shard =
        std::max(block.peak_dram_per_shard, d.peak_dram_demand);
  }
  return block;
}

}  // namespace memstream::server
