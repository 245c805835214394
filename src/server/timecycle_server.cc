#include "server/timecycle_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/profiler.h"

namespace memstream::server {

namespace {

/// Staging allocation per write stream, in IO-sized units; the
/// double-buffered schedule needs at most ~2 (see the validation tests),
/// so this leaves a little slack.
constexpr double kStagingIos = 2.2;

}  // namespace

Result<DirectStreamingServer> DirectStreamingServer::Create(
    device::DiskDrive* disk, const std::vector<StreamSpec>& streams,
    const DirectServerConfig& config) {
  DirectStreamingServer server;
  MEMSTREAM_RETURN_IF_ERROR(server.Reset(disk, streams, config));
  return server;
}

Status DirectStreamingServer::Reset(device::DiskDrive* disk,
                                    const std::vector<StreamSpec>& streams,
                                    const DirectServerConfig& config) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.cycle <= 0) return Status::InvalidArgument("cycle must be > 0");
  MEMSTREAM_RETURN_IF_ERROR(CheckDiskStreams(*disk, streams, config.cycle));
  MEMSTREAM_RETURN_IF_ERROR(config.sinks.CheckAuditor(streams.size()));

  streams_.assign(streams.begin(), streams.end());
  config_ = config;
  const std::size_t n = streams_.size();
  ResetCore(disk, {}, config_.sinks, n, config_.seed);
  play_cursor_.assign(n, 0);
  session_index_.resize(n);
  const auto reads = static_cast<std::size_t>(
      std::count_if(streams_.begin(), streams_.end(), [](const StreamSpec& s) {
        return s.direction == StreamDirection::kRead;
      }));
  play_.Resize(reads);
  record_.Resize(n - reads);
  std::size_t next_play = 0;
  std::size_t next_record = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const StreamSpec& s = streams_[i];
    // Read streams live under the Theorem-1 double-buffer envelope
    // (2*B*T); write streams under their staging allocation.
    if (s.direction == StreamDirection::kRead) {
      const std::size_t si = next_play++;
      play_.Set(si, s.id, s.bit_rate);
      session_index_[i] = si;
      telemetry_.Set(i, s.id, s.bit_rate, 2.0 * s.bit_rate * config_.cycle,
                     static_cast<std::ptrdiff_t>(si));
    } else {
      const Bytes staging = kStagingIos * s.bit_rate * config_.cycle;
      const std::size_t si = next_record++;
      record_.Set(si, s.id, s.bit_rate, staging);
      session_index_[i] = si;
      telemetry_.Set(i, s.id, s.bit_rate, staging, StreamTelemetry::kNoSession,
                     ".staging_bytes");
    }
  }

  disk_side_.Init(CycleSide::Kind::kDisk, "server.direct", config_.cycle,
                  sinks_.metrics);
  disk_util_series_ = nullptr;
  if (obs::TimelineRecorder* tl = sinks_.timelines; tl != nullptr) {
    disk_util_series_ =
        tl->AddSeries("device." + disk_name_ + ".cycle_utilization",
                      "fraction");
  }
  return Status::OK();
}

void DirectStreamingServer::RunCycle(Seconds deadline) {
  PROF_SCOPE("server.direct.cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  // One IO per stream at its playback cursor.
  DiskBatch batch = NewDiskBatch(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& s = streams_[i];
    batch.Add(i, s.disk_offset, s.extent, s.bit_rate * config_.cycle,
              &play_cursor_[i]);
  }
  TraceCycleStart(disk_side_, t0, disk_name_);

  // Each completion (a deposit for reads, a staging drain for writes)
  // lands at its done time. Double-buffered start: data fetched during
  // this cycle is consumed from the next cycle boundary on, so
  // jitter-freedom only requires that every cycle's batch finishes
  // within T.
  const Seconds boundary = t0 + config_.cycle;
  Seconds busy = ServiceDiskBatch(
      batch, t0, config_.deterministic,
      [&](std::size_t i, Bytes bytes, Seconds done, Seconds service) {
        const Completion c{Completion::kIo, i, bytes, service, boundary};
        if (!inline_) {
          completions_.Push(done, c);
        } else if (done <= horizon_) {
          // Effects past the horizon never apply, as lane items past
          // Run(until) never fire.
          ApplyCompletion(done, c);
        }
      });
  if (config_.best_effort_io > 0) busy = FillBestEffort(busy);

  const Seconds next = CloseCycle(disk_side_, t0, busy, config_.cycle,
                                  completions_, {Completion::kCycleEnd});
  obs::Record(disk_util_series_, t0 + config_.cycle, busy / config_.cycle);
  if (next < deadline) {
    sim_.ScheduleAt(next, [this, deadline]() { RunCycle(deadline); });
  }
}

Seconds DirectStreamingServer::FillBestEffort(Seconds busy) {
  // Each candidate is admitted only if its worst-case service time still
  // fits before the boundary, so the next real-time cycle never slips
  // (§3.1.2).
  const Seconds worst_case =
      disk_->MaxAccessLatency() +
      config_.best_effort_io / disk_->parameters().inner_rate;
  while (busy + worst_case < config_.cycle) {
    const auto span = static_cast<std::int64_t>(disk_->Capacity() -
                                                config_.best_effort_io);
    const device::IoSpan io{rng_.NextInt(0, span), config_.best_effort_io};
    auto st = disk_->Service(io, config_.deterministic ? nullptr : &rng_);
    if (!st.ok()) break;
    busy += st.value();
    last_head_offset_ = io.offset;
    ++report_.best_effort_ios;
    report_.best_effort_bytes += io.bytes;
  }
  return busy;
}

Status DirectStreamingServer::StartRun(Seconds duration) {
  if (streams_.empty()) {
    return Status::FailedPrecondition("no streams: Reset() the server first");
  }
  // Untraced, completions apply inline in the cycle loop, in the order
  // the lane would fire them (tests/completion_path_test.cc pins both
  // paths to identical results). That keeps the farm's thousand-stream
  // shards from queueing a whole cycle's batch per disk. A TraceLog
  // needs the lane so its records interleave in time order.
  inline_ = trace_ == nullptr;
  completions_.Bind(&sim_, [this](const Completion& c) {
    ApplyCompletion(sim_.Now(), c);
  });
  for (std::size_t i = 0; i < record_.size(); ++i) {
    record_.StartRecording(i, 0);
  }
  return sim_.Schedule(0, [this, duration]() { RunCycle(duration); });
}

void DirectStreamingServer::CloseRun() {
  const Seconds horizon = report_.horizon;
  for (std::size_t i = 0; i < play_.size(); ++i) {
    if (trace_ != nullptr && play_.underflow_events(i) > 0) {
      trace_->Append({horizon, sim::TraceKind::kUnderflow, "report",
                      play_.id(i), 0,
                      "events=" + std::to_string(play_.underflow_events(i))});
    }
  }
  for (std::size_t i = 0; i < record_.size(); ++i) {
    record_.LevelAt(i, horizon);
    report_.qos.AbsorbRecording(record_.view(i));
    report_.peak_dram += record_.peak_level(i);
    if (trace_ != nullptr && record_.overflow_events(i) > 0) {
      trace_->Append({horizon, sim::TraceKind::kOverflow, "report",
                      record_.id(i), 0,
                      "events=" +
                          std::to_string(record_.overflow_events(i))});
    }
  }
  if (auto* metrics = sinks_.metrics; metrics != nullptr) {
    metrics->counter("server.direct.cycle_overruns")
        ->Increment(static_cast<double>(report_.disk.overruns));
    metrics->gauge("server.direct.overflow_events")
        ->Set(static_cast<double>(report_.qos.overflow_events));
    metrics->gauge("server.direct.max_cycle_busy_ms")
        ->Set(report_.disk.max_busy / kMillisecond);
  }
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
