#include "server/edf_server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/profiler.h"

namespace memstream::server {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<EdfStreamingServer> EdfStreamingServer::Create(
    device::DiskDrive* disk, std::vector<StreamSpec> streams,
    const EdfServerConfig& config) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.io_playback <= 0) {
    return Status::InvalidArgument("io_playback must be > 0");
  }
  for (const auto& s : streams) {
    if (s.direction != StreamDirection::kRead) {
      return Status::InvalidArgument("EDF server services read streams");
    }
  }
  MEMSTREAM_RETURN_IF_ERROR(
      CheckDiskStreams(*disk, streams, config.io_playback));
  MEMSTREAM_RETURN_IF_ERROR(config.sinks.CheckAuditor(streams.size()));
  return EdfStreamingServer(disk, std::move(streams), config);
}

EdfStreamingServer::EdfStreamingServer(device::DiskDrive* disk,
                                       std::vector<StreamSpec> streams,
                                       const EdfServerConfig& config)
    // EDF publishes no per-stream occupancy gauges.
    : ServerCore("edf", "edf server"),
      streams_(std::move(streams)),
      config_(config) {
  ResetCore(disk, {}, config_.sinks, streams_.size(), config_.seed,
            {.occupancy_gauges = false});
  play_cursor_.assign(streams_.size(), 0);
  play_.Resize(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const StreamSpec& s = streams_[i];
    play_.Set(i, s.id, s.bit_rate);
    telemetry_.Set(i, s.id, s.bit_rate,
                   2.0 * s.bit_rate * config_.io_playback,
                   static_cast<std::ptrdiff_t>(i));
  }
}

Seconds EdfStreamingServer::DeadlineOf(std::size_t i) {
  if (!play_.playing(i)) {
    // Bootstrap: unstarted streams are the most urgent, oldest first.
    return -1.0 - 1.0 / (1.0 + static_cast<double>(i));
  }
  return sim_.Now() + play_.LevelAt(i, sim_.Now()) / play_.bit_rate(i);
}

void EdfStreamingServer::ServiceNext() {
  PROF_SCOPE("server.edf.service");
  const Seconds now = sim_.Now();
  if (now >= horizon_) return;
  if (busy_) return;  // an IO is in flight; its completion re-enters

  // Pick the eligible stream (buffer has room for one more IO) with the
  // earliest deadline; remember the earliest time an ineligible stream
  // frees room, in case everyone is full.
  std::size_t chosen = streams_.size();
  Seconds best_deadline = kInf;
  Seconds next_eligible = kInf;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Bytes io = streams_[i].bit_rate * config_.io_playback;
    const Bytes cap = 2 * io;
    const Bytes level = play_.LevelAt(i, now);
    if (level + io <= cap * (1 + 1e-9)) {
      const Seconds deadline = DeadlineOf(i);
      if (deadline < best_deadline) {
        best_deadline = deadline;
        chosen = i;
      }
    } else if (play_.playing(i)) {
      next_eligible = std::min(
          next_eligible, now + (level + io - cap) / streams_[i].bit_rate);
    }
  }

  if (chosen == streams_.size()) {
    // Every buffer is full: idle until one drains enough. Streams that
    // have not started playing yet re-enter the loop from their
    // playback start instead.
    if (next_eligible == kInf) return;
    const Seconds wake = std::min(next_eligible, horizon_);
    report_.idle_time += wake - now;
    sim_.ScheduleAt(wake, [this]() { ServiceNext(); });
    return;
  }

  const auto& s = streams_[chosen];
  const Bytes io_bytes = s.bit_rate * config_.io_playback;
  Bytes cursor = play_cursor_[chosen];
  if (cursor + io_bytes > s.extent) cursor = 0;
  play_cursor_[chosen] = cursor + io_bytes;

  auto service = disk_->Service(
      device::IoSpan{static_cast<std::int64_t>(s.disk_offset + cursor),
                     io_bytes},
      config_.deterministic ? nullptr : &rng_);
  if (!service.ok()) return;  // unreachable: validated in Create
  busy_ = true;
  const Seconds service_time = service.value();
  const Seconds done = now + service_time;
  report_.disk.busy += service_time;
  ++report_.ios_completed;
  obs::RecordIo(sinks_.auditor, chosen, io_bytes);
  const bool missed = play_.playing(chosen) && done > best_deadline;
  if (missed) ++report_.deadline_misses;
  telemetry_.CycleSlack(done, missed);
  completions_.Push(done, {chosen, io_bytes});
}

void EdfStreamingServer::ApplyCompletion(const Completion& c) {
  const Seconds done = sim_.Now();
  play_.Deposit(c.stream, done, c.bytes);
  const Bytes level = play_.LevelAt(c.stream, done);
  telemetry_.Deposit(c.stream, done, c.bytes, level);
  telemetry_.ScanStreamUnderflows(c.stream, done, play_);
  if (trace_ != nullptr) {
    trace_->Append(done, sim::TraceKind::kIoCompleted, disk_name_,
                   play_.id(c.stream), c.bytes, "edf");
  }
  if (!play_.playing(c.stream)) {
    // Double-buffered start, mirroring the time-cycle server.
    const Seconds start = done + config_.io_playback;
    starts_.Push(start, {c.stream, start});
  }
  busy_ = false;
  ServiceNext();
}

void EdfStreamingServer::StartPlayback(const PlaybackStart& s) {
  ServerCore::StartPlayback(s);
  ServiceNext();
}

Status EdfStreamingServer::StartRun(Seconds /*duration*/) {
  completions_.Bind(&sim_,
                    [this](const Completion& c) { ApplyCompletion(c); });
  return sim_.Schedule(0, [this]() { ServiceNext(); });
}

void EdfStreamingServer::CloseRun() {
  if (auto* metrics = sinks_.metrics; metrics != nullptr) {
    metrics->counter("server.edf.deadline_misses")
        ->Increment(static_cast<double>(report_.deadline_misses));
    metrics->gauge("server.edf.idle_time_s")->Set(report_.idle_time);
  }
}

}  // namespace memstream::server
