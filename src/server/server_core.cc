#include "server/server_core.h"

#include <cstdio>
#include <utility>

#include "obs/exporters.h"

namespace memstream::server {

Status CheckDiskStreams(const device::DiskDrive& disk,
                        const std::vector<StreamSpec>& streams,
                        Seconds io_seconds) {
  for (const auto& s : streams) {
    if (s.bit_rate <= 0) {
      return Status::InvalidArgument("stream bit_rate must be > 0");
    }
    if (s.extent <= 0 || s.disk_offset + s.extent > disk.Capacity()) {
      return Status::OutOfRange("stream extent beyond disk capacity");
    }
    if (s.bit_rate * io_seconds > s.extent) {
      return Status::InvalidArgument("extent smaller than one IO");
    }
  }
  return Status::OK();
}

void CycleSide::Init(Kind side_kind, const std::string& metric_prefix,
                     Seconds cycle, obs::MetricsRegistry* metrics,
                     std::size_t devices, bool scan) {
  kind = side_kind;
  prefix = metric_prefix;
  scan_underflows = scan;
  stats = {};
  device_busy.assign(devices, 0);
  cycles_metric = nullptr;
  slack_hist = nullptr;
  if (metrics != nullptr) {
    const double cycle_ms = cycle / kMillisecond;
    slack_hist = metrics->histogram(prefix + ".cycle_slack_ms",
                                    {-cycle_ms, cycle_ms, 40});
    cycles_metric = metrics->counter(prefix + ".cycles");
  }
}

void ServerCore::ResetCore(device::DiskDrive* disk,
                           std::vector<device::MemsDevice> bank,
                           const Sinks& sinks, std::size_t num_streams,
                           std::uint64_t seed, StreamTelemetryOptions options) {
  disk_ = disk;
  bank_ = std::move(bank);
  sinks_ = sinks;
  trace_ = sinks.trace;
  // The parameters' name, unlike name(), is assigned without a temporary.
  if (disk_ != nullptr) {
    disk_name_ = disk_->parameters().name;
  } else {
    disk_name_.clear();
  }
  bank_names_.clear();
  for (const auto& dev : bank_) bank_names_.push_back(dev.name());
  sim_.Reset();
  rng_ = Rng(seed);
  telemetry_.Reset(sinks, num_streams, options);
  arena_.Reset();
  arena_.ResetHighWater();
  disk_side_.device_busy.clear();
  mems_side_.device_busy.clear();
  report_ = {};
  last_head_offset_ = 0;
  horizon_ = 0;
  ran_ = false;
}

DiskBatch ServerCore::NewDiskBatch(std::size_t capacity, bool sparse) {
  arena_.Reset();
  DiskBatch batch;
  batch.ios = arena_.Alloc<device::IoSpan>(capacity);
  if (sparse) batch.streams = arena_.Alloc<std::size_t>(capacity);
  return batch;
}

bool ServerCore::ServiceLockStep(const device::IoSpan& span,
                                 Seconds* elapsed) {
  bool all_ok = true;
  *elapsed = 0;
  for (auto& dev : bank_) {
    auto st = dev.Service(span, nullptr);
    if (!st.ok()) {
      all_ok = false;
      continue;
    }
    *elapsed = std::max(*elapsed, st.value());
  }
  return all_ok;
}

void ServerCore::AccountCycle(CycleSide& side, Seconds t0, Seconds busy,
                          Seconds cycle, std::int64_t device,
                          std::int64_t shed) {
  SideStats& stats = side.stats;
  if (device < 0) {
    for (Seconds& b : side.device_busy) b += busy;  // all move together
    stats.busy += busy * static_cast<double>(side.device_busy.size());
  } else {
    side.device_busy[static_cast<std::size_t>(device)] += busy;
    stats.busy += busy;
  }
  stats.max_busy = std::max(stats.max_busy, busy);
  const bool overrun = busy > cycle * (1.0 + 1e-9);
  if (overrun) ++stats.overruns;
  ++stats.cycles;
  obs::Increment(side.cycles_metric);
  obs::Observe(side.slack_hist, (cycle - busy) / kMillisecond);
  if (side.kind == CycleSide::Kind::kDisk) {
    obs::EndDiskCycle(sinks_.auditor, t0, busy);
  } else {
    obs::EndMemsCycle(sinks_.auditor, device, t0, busy);
  }
  if (side.scan_underflows) {
    telemetry_.EndCycle(t0 + busy, overrun, play_, shed);
  } else {
    telemetry_.CycleSlack(t0 + busy, overrun);
  }
}

void ServerCore::TraceCycleStart(const CycleSide& side, Seconds t0,
                                 std::string_view actor,
                                 std::int64_t device) {
  if (trace_ == nullptr) return;
  char label[40];
  if (side.kind == CycleSide::Kind::kDisk) {
    std::snprintf(label, sizeof(label), "disk cycle %lld",
                  static_cast<long long>(side.stats.cycles));
  } else if (device >= 0) {
    std::snprintf(label, sizeof(label), "mems%lld cycle",
                  static_cast<long long>(device));
  } else {
    std::snprintf(label, sizeof(label), "striped cycle");
  }
  trace_->Append(t0, sim::TraceKind::kCycleStart, actor, -1, 0, label);
}

Status ServerCore::Run(Seconds duration) {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  ran_ = true;
  horizon_ = duration;
  starts_.Bind(&sim_, [this](const PlaybackStart& s) { StartPlayback(s); });
  MEMSTREAM_RETURN_IF_ERROR(StartRun(duration));
  if (sinks_.faults != nullptr) {
    // Device faults act on the bank; without one they are only observed
    // (trace + metrics).
    fault::FaultInjector::DeviceFaultHandler handler;
    if (!bank_.empty()) {
      handler = [this](const fault::FaultEvent& e) { ApplyFaultEvent(e); };
    }
    MEMSTREAM_RETURN_IF_ERROR(
        sinks_.faults->ScheduleIn(sim_, std::move(handler)));
  }
  auto processed = sim_.Run(duration);
  MEMSTREAM_RETURN_IF_ERROR(processed.status());
  if (sinks_.faults != nullptr) sinks_.faults->Finalize(duration);

  report_.horizon = duration;
  if (disk_side_.active()) report_.disk = disk_side_.stats;
  // The final cycle's batch may finish past the horizon; the clamp reads
  // the utilization as a fraction of the observed window.
  report_.disk.utilization = std::min(report_.disk.busy, duration) / duration;
  if (mems_side_.active()) {
    Seconds busy_sum = 0;
    for (Seconds b : mems_side_.device_busy) busy_sum += b;
    report_.mems = mems_side_.stats;
    report_.mems.utilization =
        busy_sum /
        (duration * static_cast<double>(mems_side_.device_busy.size()));
  }
  for (std::size_t i = 0; i < play_.size(); ++i) {
    play_.LevelAt(i, duration);  // accrue trailing underflow time
    report_.qos.AbsorbPlayback(play_.view(i));
    report_.peak_dram += play_.peak_level(i);
  }
  CloseRun();
  telemetry_.Finish(duration, play_, &report_.qos, context_);

  obs::MetricsRegistry* metrics = sinks_.metrics;
  if (metrics == nullptr) return Status::OK();
  const std::string server = std::string("server.") + kind_;
  metrics->gauge(server + ".underflow_events")
      ->Set(static_cast<double>(report_.qos.underflow_events));
  metrics->gauge(server + ".underflow_time_s")->Set(report_.qos.underflow_time);
  metrics->gauge(server + ".peak_dram_bytes")->Set(report_.peak_dram);
  metrics->counter(server + ".ios")
      ->Increment(static_cast<double>(report_.ios_completed));
  const auto publish_side = [&](const CycleSide& side,
                                const SideStats& stats) {
    metrics->gauge(side.prefix + ".overruns")
        ->Set(static_cast<double>(stats.overruns));
    metrics->gauge(side.prefix + ".utilization")->Set(stats.utilization);
  };
  if (mems_side_.active()) {
    publish_side(disk_side_, report_.disk);
    publish_side(mems_side_, report_.mems);
  } else {
    metrics->gauge(server + ".utilization")->Set(report_.disk.utilization);
  }
  if (disk_side_.active() || mems_side_.active()) {
    metrics->gauge("prof." + server + ".arena_high_water_bytes")
        ->Set(static_cast<double>(arena_.high_water()));
  }
  if (disk_ != nullptr) obs::ExportDeviceStats(metrics, *disk_, duration);
  for (const auto& dev : bank_) obs::ExportDeviceStats(metrics, dev, duration);
  obs::ExportSimulatorStats(metrics, sim_);
  return Status::OK();
}

}  // namespace memstream::server
