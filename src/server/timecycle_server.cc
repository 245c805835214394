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

/// Advances the write streams to `horizon` and folds their drop tallies
/// and peaks into `report`.
void AbsorbRecordings(Seconds horizon, RecordingBatch& record,
                      ServerReport* report) {
  for (std::size_t i = 0; i < record.size(); ++i) {
    record.LevelAt(i, horizon);
    report->qos.AbsorbRecording(record.view(i));
    report->peak_dram += record.peak_level(i);
  }
}

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
  num_cuts_ = 0;
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
        } else if (done <= cut_at_ || CutBefore(done)) {
          ApplyCompletion(done, c);
        }
      });
  if (config_.best_effort_io > 0) busy = FillBestEffort(busy);

  const Seconds next = CloseCycle(disk_side_, t0, busy, config_.cycle,
                                  completions_, {Completion::kCycleEnd});
  obs::Record(disk_util_series_, t0 + config_.cycle, busy / config_.cycle);
  CloseCuts(next);
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

Status DirectStreamingServer::Run(std::span<const Seconds> horizons,
                                  bool sessions) {
  if (horizons.empty() || horizons.front() <= 0) {
    return Status::InvalidArgument("horizons must be > 0");
  }
  for (std::size_t h = 1; h < horizons.size(); ++h) {
    if (!(horizons[h - 1] < horizons[h])) {
      return Status::InvalidArgument("horizons must ascend");
    }
  }
  const Sinks& sinks = config_.sinks;
  if (horizons.size() > 1 &&
      (sinks.metrics != nullptr || sinks.timelines != nullptr ||
       sinks.faults != nullptr || sinks.journal != nullptr ||
       sinks.slo != nullptr || sinks.trace != nullptr)) {
    return Status::InvalidArgument(
        "a run over several horizons takes no sink but an auditor");
  }
  if (ran()) return Status::FailedPrecondition("Run() may be called once");
  num_cuts_ = horizons.size() - 1;
  if (cuts_.size() < num_cuts_) cuts_.resize(num_cuts_);
  for (std::size_t h = 0; h < num_cuts_; ++h) {
    cuts_[h].horizon = horizons[h];
  }
  keep_sessions_ = sessions;
  return ServerCore::Run(horizons.back());
}

void DirectStreamingServer::ReserveHorizons(std::size_t horizons,
                                            bool sessions) {
  if (horizons < 2) return;
  if (cuts_.size() < horizons - 1) cuts_.resize(horizons - 1);
  for (std::size_t h = 0; h + 1 < horizons; ++h) {
    cuts_[h].record = record_;
    if (sessions) cuts_[h].play = play_;
  }
}

// Run(L) services every cycle that starts before L in full, applies the
// completions done by L and the playback starts due by L, then advances
// each stream to L. A horizon L short of the run's last is cut from the
// same pass, when the first completion done past L arrives or, if a
// cycle's batch ends by L, at that cycle's close: the streams' part of
// L's report is read as the streams would stand advanced to L, without
// advancing the live state (that would change its floating-point bits).
// A start past L changes no tally before L; it only shows in a kept
// session, which drops it. The cycle that straddles L still counts in
// full, so L's report completes at that cycle's close: its IOs, busy
// time, overrun and the auditor's cycle checks, less the DRAM-level
// violations of the completions past L.
bool DirectStreamingServer::CutBefore(Seconds done) {
  while (next_cut_ < num_cuts_ && cuts_[next_cut_].horizon < done) TakeCut();
  // Effects past the last horizon never apply, as lane items past
  // Run(until) never fire.
  return done <= horizon_;
}

void DirectStreamingServer::TakeCut() {
  HorizonCut& cut = cuts_[next_cut_++];
  cut_at_ = next_cut_ < num_cuts_ ? cuts_[next_cut_].horizon : horizon_;
  const Seconds horizon = cut.horizon;
  cut.streams = {};
  ReportPlayback(horizon, play_, &cut.streams);
  cut.record = record_;
  AbsorbRecordings(horizon, cut.record, &cut.streams);
  const obs::QosAuditor* auditor = sinks_.auditor;
  cut.level_violations = auditor != nullptr ? auditor->level_violations() : 0;
  if (keep_sessions_) {
    cut.play = play_;
    cut.play.DropStartsAfter(horizon);
    for (std::size_t i = 0; i < cut.play.size(); ++i) {
      cut.play.LevelAt(i, horizon);
    }
  }
}

void DirectStreamingServer::CloseCuts(Seconds next) {
  while (next_cut_ < num_cuts_ && cuts_[next_cut_].horizon <= next) TakeCut();
  for (; closed_cuts_ < next_cut_; ++closed_cuts_) {
    HorizonCut& cut = cuts_[closed_cuts_];
    cut.report = report_;  // the IO and best-effort counts so far
    cut.report.qos = cut.streams.qos;
    cut.report.peak_dram = cut.streams.peak_dram;
    ReportSides(cut.horizon, &cut.report);
    if (const obs::QosAuditor* auditor = sinks_.auditor; auditor != nullptr) {
      cut.report.qos.violations =
          auditor->total_violations() -
          (auditor->level_violations() - cut.level_violations);
    }
  }
}

Status DirectStreamingServer::StartRun(Seconds duration) {
  if (streams_.empty()) {
    return Status::FailedPrecondition("no streams: Reset() the server first");
  }
  next_cut_ = 0;
  closed_cuts_ = 0;
  cut_at_ = num_cuts_ > 0 ? cuts_[0].horizon : duration;
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
  AbsorbRecordings(horizon, record_, &report_);
  for (std::size_t i = 0; i < record_.size(); ++i) {
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
