// Fault plans: a deterministic, time-ordered schedule of injected faults.
//
// A plan is either scripted (explicit FaultEvent list, for tests and
// targeted scenarios) or generated from a Poisson failure rate with a
// seeded Rng, so the same (config, seed) pair always yields the same
// fault sequence — sweeps over fault rates stay reproducible at any
// thread count because the plan is materialized up front, not sampled
// during the run.
//
// The one fault kind is whole-MEMS-device failure with later repair: the
// fault under which the paper's striped and replicated cache policies
// (§3.2) differ. A replicated bank keeps serving at k-1, a striped bank
// loses its content until the device returns and its stripes refill.

#ifndef MEMSTREAM_FAULT_FAULT_PLAN_H_
#define MEMSTREAM_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace memstream::fault {

/// What kind of fault an event injects.
enum class FaultKind {
  kMemsDeviceFail,   ///< one MEMS device stops servicing IOs
  kMemsDeviceRepair, ///< a failed device returns to service
};

const char* FaultKindName(FaultKind kind);

/// One scheduled fault.
struct FaultEvent {
  Seconds time = 0;
  FaultKind kind = FaultKind::kMemsDeviceFail;
  /// Affected MEMS device index.
  std::int64_t device = -1;
  /// For kMemsDeviceRepair, the outage length it ends (for trace spans).
  Seconds duration = 0;
};

/// Generated plans: device failures arrive as a Poisson process of
/// `device_fail_rate` events per simulated second over [0, horizon); a
/// rate of 0 yields an empty plan.
struct FaultPlanConfig {
  Seconds horizon = 60;
  std::int64_t num_devices = 1;  ///< MEMS devices to draw targets from
  double device_fail_rate = 0;
  Seconds repair_after = 10;  ///< outage length; repair event is paired
};

/// An immutable, time-sorted fault schedule.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// A plan from an explicit event list (sorted by time, stably).
  static FaultPlan FromScript(std::vector<FaultEvent> events);

  /// Draws the failure process from a seeded Rng. Each failure emits a
  /// paired kMemsDeviceRepair at fail time + repair_after (also
  /// when that lands past the horizon: the run just ends degraded). A
  /// device already down stays down — overlapping failures of the same
  /// device are dropped rather than double-counted.
  static Result<FaultPlan> Generate(const FaultPlanConfig& config,
                                    std::uint64_t seed);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  explicit FaultPlan(std::vector<FaultEvent> events);

  std::vector<FaultEvent> events_;
};

}  // namespace memstream::fault

#endif  // MEMSTREAM_FAULT_FAULT_PLAN_H_
