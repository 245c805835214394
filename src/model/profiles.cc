#include "model/profiles.h"

#include <algorithm>
#include <cmath>

namespace memstream::model {

DeviceProfile DiskProfile(const device::DiskDrive& disk, std::int64_t n) {
  DeviceProfile p;
  p.rate = disk.MaxTransferRate();
  p.latency = disk.SchedulerDeterminedLatency(n).value_or(
      disk.AverageAccessLatency());
  p.capacity = disk.Capacity();
  return p;
}

DeviceProfile DiskProfileConservative(const device::DiskDrive& disk,
                                      std::int64_t n) {
  DeviceProfile p = DiskProfile(disk, n);
  p.rate = disk.parameters().inner_rate;
  return p;
}

LatencyFn DiskLatencyFn(const device::DiskDrive& disk) {
  // Capture the pieces by value so the function outlives the drive.
  const auto seek = disk.seek_model();
  const Seconds half_rotation = 0.5 * disk.RotationPeriod();
  const std::int64_t cylinders = disk.parameters().num_cylinders;
  return [seek, half_rotation, cylinders](std::int64_t n) -> Seconds {
    if (n < 1) n = 1;
    // Mirrors DiskDrive::SchedulerDeterminedLatency exactly.
    const auto gap = static_cast<std::int64_t>(
        std::llround(static_cast<double>(cylinders) /
                     static_cast<double>(n + 1)));
    const Seconds gap_seek = seek.SeekTime(std::max<std::int64_t>(gap, 1));
    const Seconds wrap =
        (seek.FullStrokeTime() - gap_seek) / static_cast<double>(n);
    return gap_seek + wrap + half_rotation;
  };
}

DeviceProfile MemsProfileMaxLatency(const device::MemsDevice& mems) {
  DeviceProfile p;
  p.rate = mems.MaxTransferRate();
  p.latency = mems.MaxAccessLatency();
  p.capacity = mems.Capacity();
  p.cost_per_device = mems.parameters().cost_per_device;
  p.cost_per_byte = mems.parameters().cost_per_device / mems.Capacity();
  return p;
}

DeviceProfile ScaledBankProfile(const DeviceProfile& single, std::int64_t k,
                                bool replicated_capacity) {
  DeviceProfile p = single;
  p.rate = single.rate * static_cast<double>(k);
  p.latency = single.latency / static_cast<double>(k);
  p.capacity = replicated_capacity
                   ? single.capacity
                   : single.capacity * static_cast<double>(k);
  p.cost_per_device = single.cost_per_device * static_cast<double>(k);
  return p;
}

}  // namespace memstream::model
