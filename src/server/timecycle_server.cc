#include "server/timecycle_server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/profiler.h"
#include "obs/exporters.h"

namespace memstream::server {

Result<DirectStreamingServer> DirectStreamingServer::Create(
    device::DiskDrive* disk, std::vector<StreamSpec> streams,
    const DirectServerConfig& config) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.cycle <= 0) return Status::InvalidArgument("cycle must be > 0");
  if (config.staging_ios < 1.0) {
    return Status::InvalidArgument("staging_ios must be >= 1");
  }
  for (const auto& s : streams) {
    if (s.bit_rate <= 0) {
      return Status::InvalidArgument("stream bit_rate must be > 0");
    }
    if (s.extent <= 0 ||
        s.disk_offset + s.extent > disk->Capacity()) {
      return Status::OutOfRange("stream extent beyond disk capacity");
    }
    // An IO must fit inside the extent for the wrap logic to be sound.
    if (s.bit_rate * config.cycle > s.extent) {
      return Status::InvalidArgument("extent smaller than one IO");
    }
  }
  MEMSTREAM_RETURN_IF_ERROR(config.sinks.CheckAuditor(streams.size()));
  return DirectStreamingServer(disk, std::move(streams), config);
}

DirectStreamingServer::DirectStreamingServer(device::DiskDrive* disk,
                                             std::vector<StreamSpec> streams,
                                             const DirectServerConfig& config)
    : disk_(disk),
      streams_(std::move(streams)),
      config_(config),
      trace_(config.sinks.trace),
      disk_name_(disk->name()),
      rng_(config.seed),
      telemetry_(config.sinks, streams_.size()) {
  play_cursor_.assign(streams_.size(), 0);
  session_index_.reserve(streams_.size());
  for (const auto& s : streams_) {
    // Read streams live under the Theorem-1 double-buffer envelope
    // (2*B*T); write streams under their staging allocation.
    if (s.direction == StreamDirection::kRead) {
      const std::size_t si = play_.Add(s.id, s.bit_rate);
      session_index_.push_back(si);
      telemetry_.Add(s.id, s.bit_rate, 2.0 * s.bit_rate * config_.cycle,
                     static_cast<std::ptrdiff_t>(si));
    } else {
      const Bytes staging =
          config_.staging_ios * s.bit_rate * config_.cycle;
      session_index_.push_back(record_.Add(s.id, s.bit_rate, staging));
      telemetry_.Add(s.id, s.bit_rate, staging, StreamTelemetry::kNoSession,
                     ".staging_bytes");
    }
  }

  // Resolve telemetry handles once; hot-path updates are null-guarded.
  if (auto* metrics = config_.sinks.metrics; metrics != nullptr) {
    const double cycle_ms = config_.cycle / kMillisecond;
    slack_hist_ = metrics->histogram("server.direct.cycle_slack_ms",
                                     {-cycle_ms, cycle_ms, 40});
    cycles_metric_ = metrics->counter("server.direct.cycles");
    overruns_metric_ = metrics->counter("server.direct.cycle_overruns");
    ios_metric_ = metrics->counter("server.direct.ios");
  }
  if (obs::TimelineRecorder* tl = config_.sinks.timelines; tl != nullptr) {
    disk_util_series_ =
        tl->AddSeries("device." + disk_->name() + ".cycle_utilization",
                      "fraction");
  }
}

void DirectStreamingServer::RunCycle(Seconds deadline) {
  PROF_SCOPE("server.direct.cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  // Build this cycle's batch in arena scratch: one IO per stream at its
  // playback cursor. The arena recycles last cycle's scratch, so the
  // steady-state cycle performs zero heap allocations.
  arena_.Reset();
  const std::size_t n = streams_.size();
  auto* batch = arena_.Alloc<device::IoSpan>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.cycle;
    Bytes cursor = play_cursor_[i];
    // Wrap within the extent so long runs keep streaming.
    if (cursor + io_bytes > s.extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;
    batch[i] = device::IoSpan{
        static_cast<std::int64_t>(s.disk_offset + cursor), io_bytes};
  }

  if (trace_ != nullptr) {
    char label[40];
    std::snprintf(label, sizeof(label), "disk cycle %lld",
                  static_cast<long long>(report_.cycles));
    trace_->Append(t0, sim::TraceKind::kCycleStart, disk_name_, -1, 0,
                   label);
  }

  // Service the batch in scheduler order; each completion (a deposit for
  // reads, a staging drain for writes) lands at its done time.
  auto* order = arena_.Alloc<std::size_t>(n);
  auto* scratch = arena_.Alloc<std::size_t>(n);
  device::ScheduleOrderInto(config_.policy, last_head_offset_, batch, n,
                            order, scratch);
  // Double-buffered start: data fetched during this cycle is consumed
  // from the next cycle boundary on, so jitter-freedom only requires that
  // every cycle's batch finishes within T.
  const Seconds boundary = t0 + config_.cycle;
  Seconds busy = 0;
  for (std::size_t oi = 0; oi < n; ++oi) {
    const std::size_t idx = order[oi];
    auto st = disk_->Service(batch[idx],
                             config_.deterministic ? nullptr : &rng_);
    if (!st.ok()) continue;  // unreachable: offsets validated in Create
    Seconds service = st.value();
    if (config_.sinks.faults != nullptr) {
      service += config_.sinks.faults->DiskIoPenalty(t0 + busy);
    }
    busy += service;
    last_head_offset_ = batch[idx].offset;
    ++report_.ios_completed;
    obs::Increment(ios_metric_);
    obs::RecordIo(config_.sinks.auditor, idx, batch[idx].bytes);
    const Completion c{Completion::kIo, idx, batch[idx].bytes, service,
                       boundary};
    if (!inline_) {
      completions_.Push(t0 + busy, c);
    } else if (t0 + busy <= horizon_) {
      // Effects past the horizon never apply, as lane items past
      // Run(until) never fire.
      ApplyCompletion(t0 + busy, c);
    }
  }

  // Fill remaining cycle slack with best-effort traffic (§3.1.2). Each
  // candidate is admitted only if its worst-case service time still fits
  // before the boundary, so the next real-time cycle never slips.
  if (config_.best_effort_io > 0) {
    const Seconds worst_case =
        disk_->MaxAccessLatency() +
        config_.best_effort_io / disk_->parameters().inner_rate;
    while (busy + worst_case < config_.cycle) {
      const auto span = static_cast<std::int64_t>(disk_->Capacity() -
                                                  config_.best_effort_io);
      const device::IoSpan io{rng_.NextInt(0, span),
                              config_.best_effort_io};
      auto st = disk_->Service(io, config_.deterministic ? nullptr : &rng_);
      if (!st.ok()) break;
      busy += st.value();
      last_head_offset_ = io.offset;
      ++report_.best_effort_ios;
      report_.best_effort_bytes += io.bytes;
    }
  }

  report_.total_busy += busy;
  report_.max_cycle_busy = std::max(report_.max_cycle_busy, busy);
  const bool overrun = busy > config_.cycle * (1.0 + 1e-9);
  if (overrun) {
    ++report_.cycle_overruns;
    obs::Increment(overruns_metric_);
  }
  ++report_.cycles;
  obs::Increment(cycles_metric_);
  obs::Observe(slack_hist_, (config_.cycle - busy) / kMillisecond);
  obs::EndDiskCycle(config_.sinks.auditor, t0, busy);
  telemetry_.EndCycle(t0 + busy, overrun, play_);
  obs::Record(disk_util_series_, t0 + config_.cycle, busy / config_.cycle);
  if (trace_ != nullptr && busy > 0) {
    // Queued behind this cycle's completions so the record lands in time
    // order among the IO records.
    completions_.Push(t0 + busy, {Completion::kCycleEnd, 0, 0, busy, 0});
  }

  // Next cycle at the nominal boundary (or immediately after an overrun).
  const Seconds next = t0 + std::max(config_.cycle, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next, [this, deadline]() { RunCycle(deadline); });
  }
}

Status DirectStreamingServer::Run(Seconds duration) {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  ran_ = true;
  horizon_ = duration;
  // Untraced, completions apply inline in the cycle loop, in the order
  // the lane would fire them (tests/completion_path_test.cc pins both
  // paths to identical results). That keeps the farm's thousand-stream
  // shards from queueing a whole cycle's batch per disk. A TraceLog
  // needs the lane so its records interleave in time order.
  inline_ = trace_ == nullptr;
  completions_.Bind(&sim_, [this](const Completion& c) {
    ApplyCompletion(sim_.Now(), c);
  });
  starts_.Bind(&sim_, [this](const PlaybackStart& s) {
    if (!play_.playing(s.session)) play_.StartPlayback(s.session, s.start);
  });

  for (std::size_t i = 0; i < record_.size(); ++i) {
    record_.StartRecording(i, 0);
  }
  MEMSTREAM_RETURN_IF_ERROR(
      sim_.Schedule(0, [this, duration]() { RunCycle(duration); }));
  if (config_.sinks.faults != nullptr) {
    // No MEMS bank here: device-scoped faults are observed (trace +
    // metrics) but only the disk-spike windows change behaviour.
    MEMSTREAM_RETURN_IF_ERROR(config_.sinks.faults->ScheduleIn(sim_, nullptr));
  }
  auto processed = sim_.Run(duration);
  MEMSTREAM_RETURN_IF_ERROR(processed.status());
  if (config_.sinks.faults != nullptr) config_.sinks.faults->Finalize(duration);

  report_.horizon = duration;
  // The final cycle's batch may finish past the horizon; clamp so the
  // utilization reads as a fraction of the observed window.
  report_.device_utilization =
      duration > 0 ? std::min(report_.total_busy, duration) / duration : 0;
  report_.peak_buffer_demand =
      StreamTelemetry::AbsorbPlayback(duration, play_, &report_.qos);
  for (std::size_t i = 0; i < play_.size(); ++i) {
    if (trace_ != nullptr && play_.underflow_events(i) > 0) {
      trace_->Append({duration, sim::TraceKind::kUnderflow, "report",
                      play_.id(i), 0,
                      "events=" + std::to_string(play_.underflow_events(i))});
    }
  }
  for (std::size_t i = 0; i < record_.size(); ++i) {
    record_.LevelAt(i, duration);
    report_.qos.AbsorbRecording(record_.view(i));
    report_.peak_buffer_demand += record_.peak_level(i);
    if (trace_ != nullptr && record_.overflow_events(i) > 0) {
      trace_->Append({duration, sim::TraceKind::kOverflow, "report",
                      record_.id(i), 0,
                      "events=" +
                          std::to_string(record_.overflow_events(i))});
    }
  }
  telemetry_.Finish(duration, play_, &report_.qos, "timecycle server");

  telemetry_.PublishGauges("direct", report_.qos, report_.peak_buffer_demand);
  if (auto* metrics = config_.sinks.metrics; metrics != nullptr) {
    metrics->gauge("server.direct.overflow_events")
        ->Set(static_cast<double>(report_.qos.overflow_events));
    metrics->gauge("server.direct.utilization")
        ->Set(report_.device_utilization);
    metrics->gauge("server.direct.max_cycle_busy_ms")
        ->Set(report_.max_cycle_busy / kMillisecond);
    metrics->gauge("prof.server.direct.arena_high_water_bytes")
        ->Set(static_cast<double>(arena_.high_water()));
    obs::ExportDeviceStats(metrics, *disk_, duration);
    obs::ExportSimulatorStats(metrics, sim_);
  }
  return Status::OK();
}

void DirectStreamingServer::ApplyCompletion(Seconds done,
                                            const Completion& c) {
  if (c.kind == Completion::kCycleEnd) {
    trace_->Append(done, sim::TraceKind::kCycleEnd, disk_name_, -1, 0, "",
                   c.service);
    return;
  }
  const std::size_t idx = c.stream;
  const std::size_t si = session_index_[idx];
  if (streams_[idx].direction == StreamDirection::kWrite) {
    record_.Drain(si, done, c.bytes);
    const Bytes level = record_.LevelAt(si, done);
    telemetry_.Deposit(idx, done, c.bytes, level);
    if (trace_ != nullptr) {
      trace_->Append(done, sim::TraceKind::kIoCompleted, disk_name_,
                     record_.id(si), c.bytes, "recorded", c.service);
    }
    return;
  }
  play_.Deposit(si, done, c.bytes);
  const Bytes level = play_.LevelAt(si, done);
  telemetry_.Deposit(idx, done, c.bytes, level);
  if (trace_ != nullptr) {
    trace_->Append(done, sim::TraceKind::kIoCompleted, disk_name_,
                   play_.id(si), c.bytes, "", c.service);
    trace_->Append(done, sim::TraceKind::kBufferLevel, "stream",
                   play_.id(si), level, "");
  }
  if (!play_.playing(si)) {
    const Seconds start = std::max(done, c.boundary);
    if (!inline_) {
      starts_.Push(start, {si, start});
    } else if (start <= horizon_) {
      play_.StartPlayback(si, start);
    }
  }
}

}  // namespace memstream::server
