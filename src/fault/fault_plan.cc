#include "fault/fault_plan.h"

#include <algorithm>

#include "common/random.h"

namespace memstream::fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMemsDeviceFail:
      return "mems-device-fail";
    case FaultKind::kMemsDeviceRepair:
      return "mems-device-repair";
  }
  return "?";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
}

FaultPlan FaultPlan::FromScript(std::vector<FaultEvent> events) {
  return FaultPlan(std::move(events));
}

Result<FaultPlan> FaultPlan::Generate(const FaultPlanConfig& config,
                                      std::uint64_t seed) {
  if (config.horizon <= 0) {
    return Status::InvalidArgument("fault plan horizon must be > 0");
  }
  if (config.num_devices < 1) {
    return Status::InvalidArgument("fault plan needs >= 1 device");
  }
  if (config.repair_after <= 0) {
    return Status::InvalidArgument("repair_after must be > 0");
  }

  Rng rng(seed);
  std::vector<FaultEvent> events;
  if (config.device_fail_rate <= 0) return FaultPlan(std::move(events));

  // Poisson arrivals over [0, horizon). An arrival that hits a device
  // still down is dropped (one outage per device at a time).
  std::vector<Seconds> down_until(
      static_cast<std::size_t>(config.num_devices), -1);
  for (Seconds t = rng.NextExponential(config.device_fail_rate);
       t < config.horizon; t += rng.NextExponential(config.device_fail_rate)) {
    const auto dev =
        static_cast<std::size_t>(rng.NextInt(0, config.num_devices - 1));
    if (t < down_until[dev]) continue;  // still failed: no double-fault
    down_until[dev] = t + config.repair_after;
    FaultEvent fail;
    fail.time = t;
    fail.kind = FaultKind::kMemsDeviceFail;
    fail.device = static_cast<std::int64_t>(dev);
    events.push_back(fail);
    FaultEvent repair;
    repair.time = t + config.repair_after;
    repair.kind = FaultKind::kMemsDeviceRepair;
    repair.device = static_cast<std::int64_t>(dev);
    repair.duration = config.repair_after;
    events.push_back(repair);
  }

  return FaultPlan(std::move(events));
}

}  // namespace memstream::fault
