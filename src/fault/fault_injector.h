// Fault injector: materializes a FaultPlan against one simulated run.
//
// ScheduleIn() registers one simulator callback per fault event; each
// device failure and repair is forwarded to the server's handler so it
// can fail or restore its device and trigger a degradation re-plan at
// the right simulated time.
//
// Every fault start/end is mirrored into the TraceLog (kFaultStart /
// kFaultEnd records) and the fault.* metrics; the injector also keeps
// the run's obs::FaultsBlock — the "faults" object of RunReport v3 —
// including the shed/re-admit ledger that the DegradationManager's
// actions feed via RecordShed() / RecordReadmit() / RecordReplan().
//
// Burst-drop accounting: while >= 1 device is down the TraceLog's
// dropped_records() is snapshotted at the burst edges; drops that
// happened inside bursts are reported separately
// (faults.dropped_during_burst) and, when nonzero, Finalize() emits one
// structured warning line on stderr so truncated evidence of a degraded
// window is never silent.

#ifndef MEMSTREAM_FAULT_FAULT_INJECTOR_H_
#define MEMSTREAM_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::fault {

/// Wiring for one run. All pointers optional and not owned.
struct FaultInjectorConfig {
  obs::MetricsRegistry* metrics = nullptr;
  sim::TraceLog* trace = nullptr;
  /// Stream of the structured burst-drop warning; null = std::cerr.
  std::ostream* warn_stream = nullptr;
};

/// Applies one FaultPlan to one run. Not reusable across runs.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, const FaultInjectorConfig& config);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Called at each fault's time (fail or repair), after the injector
  /// has done its own bookkeeping.
  using DeviceFaultHandler = std::function<void(const FaultEvent&)>;

  /// Registers one callback per plan event with the simulator.
  /// `device_handler` may be null (faults are then observed but nothing
  /// reacts — the ablation baseline).
  Status ScheduleIn(sim::Simulator& sim, DeviceFaultHandler device_handler);

  // --- degradation ledger (called by the server / DegradationManager) ---

  /// Stream `stream_id` was shed at `now`, effective in cycle `cycle`.
  void RecordShed(std::int64_t stream_id, Seconds now, std::int64_t cycle);

  /// A previously shed stream rejoined service.
  void RecordReadmit(std::int64_t stream_id, Seconds now);

  /// A degradation re-plan was applied in response to `cause`; `action`
  /// is the human-readable outcome ("reshape T_mems=...", "shed 2", ...).
  void RecordReplan(const FaultEvent& cause, Seconds now,
                    const std::string& action);

  // --- run end ---

  /// Closes open outages at `horizon`: settles burst-drop accounting,
  /// accrues shed time for still-shed streams, publishes the
  /// trace.dropped_records metric, and emits the structured stderr
  /// warning if records were dropped during a fault burst.
  void Finalize(Seconds horizon);

  /// The run's "faults" report block (stable once Finalize() ran).
  const obs::FaultsBlock& block() const { return block_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  void OnFaultStart(const FaultEvent& e, Seconds now);
  void OnFaultEnd(const FaultEvent& e, Seconds now);
  void EnterBurst();
  void LeaveBurst();
  std::string ActorOf(const FaultEvent& e) const;

  FaultPlan plan_;
  FaultInjectorConfig config_;
  obs::FaultsBlock block_;
  std::int64_t active_faults_ = 0;     ///< failed devices
  std::int64_t burst_drop_mark_ = 0;   ///< dropped_records() at burst entry
  bool finalized_ = false;
  // Telemetry handles (null when config_.metrics is null).
  obs::Counter* events_metric_ = nullptr;
  obs::Counter* repairs_metric_ = nullptr;
  obs::Counter* sheds_metric_ = nullptr;
  obs::Counter* readmits_metric_ = nullptr;
  obs::Counter* replans_metric_ = nullptr;
  obs::Gauge* active_metric_ = nullptr;
  obs::Gauge* dropped_metric_ = nullptr;
};

}  // namespace memstream::fault

#endif  // MEMSTREAM_FAULT_FAULT_INJECTOR_H_
