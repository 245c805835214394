#include "server/cache_server.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "common/profiler.h"

namespace memstream::server {

namespace {

/// DRAM-bound factor the auditor is registered with (bound = factor * B̄
/// * cycle, the double-buffer envelope); re-plans resize the audited
/// bounds with the same factor.
constexpr double kDramBoundFactor = 2.0;

}  // namespace

Result<CacheStreamingServer> CacheStreamingServer::Create(
    device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
    std::vector<CacheStreamSpec> streams, const CacheServerConfig& config) {
  if (bank.empty()) return Status::InvalidArgument("bank must not be empty");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.disk_cycle <= 0 || config.mems_cycle <= 0) {
    return Status::InvalidArgument("cycle lengths must be > 0");
  }
  const Bytes bank_content =
      config.policy == model::CachePolicy::kStriped
          ? bank[0].Capacity() * static_cast<double>(bank.size())
          : bank[0].Capacity();
  for (const auto& s : streams) {
    if (s.bit_rate <= 0) {
      return Status::InvalidArgument("stream bit_rate must be > 0");
    }
    if (s.extent <= 0) return Status::InvalidArgument("empty extent");
    if (s.cached) {
      if (s.offset + s.extent > bank_content) {
        return Status::OutOfRange("cached stream beyond bank capacity");
      }
      if (s.bit_rate * config.mems_cycle > s.extent) {
        return Status::InvalidArgument("extent smaller than one cache IO");
      }
    } else {
      if (disk == nullptr) {
        return Status::InvalidArgument("uncached streams but no disk");
      }
      if (s.offset + s.extent > disk->Capacity()) {
        return Status::OutOfRange("stream extent beyond disk capacity");
      }
      if (s.bit_rate * config.disk_cycle > s.extent) {
        return Status::InvalidArgument("extent smaller than one disk IO");
      }
    }
    if (s.cached && s.backing_extent > 0) {
      if (disk == nullptr) {
        return Status::InvalidArgument("backing copy but no disk");
      }
      if (s.backing_offset + s.backing_extent > disk->Capacity()) {
        return Status::OutOfRange("backing copy beyond disk capacity");
      }
      if (s.bit_rate * config.disk_cycle > s.backing_extent) {
        return Status::InvalidArgument(
            "backing copy smaller than one disk IO");
      }
    }
  }
  MEMSTREAM_RETURN_IF_ERROR(config.sinks.CheckAuditor(streams.size()));
  return CacheStreamingServer(disk, std::move(bank), std::move(streams),
                              config);
}

CacheStreamingServer::CacheStreamingServer(
    device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
    std::vector<CacheStreamSpec> streams, const CacheServerConfig& config)
    : ServerCore("cache", "cache server"),
      streams_(std::move(streams)),
      config_(config) {
  ResetCore(disk, std::move(bank), config_.sinks, streams_.size(),
            config_.seed, {.availability_slo = true});
  play_cursor_.assign(streams_.size(), 0);
  play_.Resize(streams_.size());
  // Cached streams live under the Theorem-3/4 MEMS-cycle envelope, disk
  // streams under Theorem 1's (matching the audited bounds).
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& s = streams_[i];
    play_.Set(i, s.id, s.bit_rate);
    telemetry_.Set(i, s.id, s.bit_rate,
                   kDramBoundFactor * s.bit_rate *
                       (s.cached ? config_.mems_cycle : config_.disk_cycle),
                   static_cast<std::ptrdiff_t>(i));
    if (s.cached) {
      cache_streams_.push_back(i);
    } else {
      disk_streams_.push_back(i);
    }
  }
  device_alive_.assign(bank_.size(), true);
  placement_.assign(streams_.size(), Placement::kCache);
  device_cycle_running_.assign(bank_.size(), false);
  // Replicated assignment: device j services every (j + i*k)-th cached
  // stream (rebuilt over alive devices whenever degradation re-plans).
  replicated_assign_.assign(bank_.size(), {});
  for (std::size_t j = 0; j < cache_streams_.size(); ++j) {
    replicated_assign_[j % bank_.size()].push_back(cache_streams_[j]);
  }

  disk_side_.Init(CycleSide::Kind::kDisk, "server.cache.disk",
                  config_.disk_cycle, sinks_.metrics);
  mems_side_.Init(CycleSide::Kind::kMems, "server.cache.mems",
                  config_.mems_cycle, sinks_.metrics, bank_.size());
}

std::string_view CacheStreamingServer::ActorOf(std::int32_t source) const {
  if (source == kDiskSource) return disk_name_;
  if (source == kStripedSource) return kStripedActor;
  return bank_names_[static_cast<std::size_t>(source)];
}

void CacheStreamingServer::ApplyCompletion(const Completion& c) {
  const Seconds done = sim_.Now();
  if (c.kind == Completion::kCycleEnd) {
    trace_->Append(done, sim::TraceKind::kCycleEnd, ActorOf(c.source), -1, 0,
                   "", c.service);
    return;
  }
  const std::size_t stream = c.stream;
  play_.Deposit(stream, done, c.bytes);
  const Bytes level = play_.LevelAt(stream, done);
  telemetry_.Deposit(stream, done, c.bytes, level);
  if (trace_ != nullptr) {
    trace_->Append(done, sim::TraceKind::kIoCompleted, ActorOf(c.source),
                   play_.id(stream), c.bytes, "", c.service);
    trace_->Append(done, sim::TraceKind::kBufferLevel, "stream",
                   play_.id(stream), level, "");
  }
  if (!play_.playing(stream) && placement_[stream] != Placement::kShed) {
    const Seconds start = std::max(done, c.boundary);
    starts_.Push(start, {stream, start});
  }
}

Bytes CacheStreamingServer::EffOffset(std::size_t i) const {
  return placement_[i] == Placement::kDisk && streams_[i].cached
             ? streams_[i].backing_offset
             : streams_[i].offset;
}

Bytes CacheStreamingServer::EffExtent(std::size_t i) const {
  return placement_[i] == Placement::kDisk && streams_[i].cached
             ? streams_[i].backing_extent
             : streams_[i].extent;
}

void CacheStreamingServer::RunDiskCycle(Seconds deadline) {
  PROF_SCOPE("server.cache.disk_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline || disk_streams_.empty()) {
    disk_running_ = false;
    return;
  }

  // One IO per active disk stream, read from the backing copy while a
  // cached stream is placed on the disk.
  DiskBatch batch = NewDiskBatch(disk_streams_.size(), /*sparse=*/true);
  for (std::size_t i : disk_streams_) {
    if (placement_[i] == Placement::kShed) continue;
    batch.Add(i, EffOffset(i), EffExtent(i),
              streams_[i].bit_rate * config_.disk_cycle, &play_cursor_[i]);
  }
  if (batch.size == 0) {
    disk_running_ = false;
    return;
  }

  const Seconds boundary = t0 + config_.disk_cycle;
  const Seconds busy = ServiceDiskBatch(
      batch, t0, config_.deterministic,
      [&](std::size_t i, Bytes bytes, Seconds done, Seconds service) {
        disk_lane_.Push(done, {Completion::kIo, kDiskSource, i, bytes, service,
                               boundary});
      });

  const Seconds next =
      CloseCycle(disk_side_, t0, busy, config_.disk_cycle, disk_lane_,
                 {Completion::kCycleEnd, kDiskSource}, 0, shed_streams_);
  disk_running_ = next < deadline;
  if (disk_running_) {
    sim_.ScheduleAt(next, [this, deadline]() { RunDiskCycle(deadline); });
  }
}

void CacheStreamingServer::RunStripedCycle(Seconds deadline) {
  PROF_SCOPE("server.cache.striped_mems_cycle");
  MemsCycle(kStripedSource, deadline);
}

void CacheStreamingServer::RunReplicatedCycle(std::size_t dev,
                                              Seconds deadline) {
  PROF_SCOPE("server.cache.replicated_mems_cycle");
  MemsCycle(static_cast<std::int32_t>(dev), deadline);
}

void CacheStreamingServer::MemsCycle(std::int32_t source, Seconds deadline) {
  const Seconds t0 = sim_.Now();
  const bool striped = source == kStripedSource;
  const std::size_t dev = striped ? 0 : static_cast<std::size_t>(source);
  const auto set_running = [&](bool running) {
    if (striped) {
      striped_running_ = running;
    } else {
      device_cycle_running_[dev] = running;
    }
  };
  const bool halted = striped ? cache_streams_.empty() || cache_halted_
                              : !device_alive_[dev];
  if (t0 >= deadline || halted) {
    set_running(false);
    return;
  }

  // A replicated device services its assigned cached streams (initially
  // every (dev + j*k)-th; rebuilt over alive devices after degradation).
  // Striped, every device transfers io_bytes/k at the same relative
  // location in lock-step. Every stripe needs all k devices (Corollary
  // 3): with any of them failed the read yields nothing, so the stream
  // starves unless a DegradationManager halted the cache and re-planned.
  const auto k = static_cast<double>(bank_.size());
  Seconds busy = 0;
  bool any = false;
  for (std::size_t i : striped ? cache_streams_ : replicated_assign_[dev]) {
    if (placement_[i] != Placement::kCache) continue;
    any = true;
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.mems_cycle;
    Bytes cursor = play_cursor_[i];
    if (cursor + io_bytes > s.extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;

    const device::IoSpan span =
        striped ? device::IoSpan{static_cast<std::int64_t>(
                                     (s.offset + cursor) / k),
                                 io_bytes / k}
                : device::IoSpan{static_cast<std::int64_t>(s.offset + cursor),
                                 io_bytes};
    Seconds op_time = 0;
    bool ok = true;
    if (striped) {
      ok = ServiceLockStep(span, &op_time);
    } else if (auto st = bank_[dev].Service(span, nullptr); st.ok()) {
      op_time = st.value();
    } else {
      ok = false;  // failed device: the loop exits via device_alive_
    }
    busy += op_time;
    if (!ok) continue;
    ++report_.ios_completed;
    obs::RecordIo(sinks_.auditor, i, io_bytes);
    mems_lanes_[dev].Push(t0 + busy, {Completion::kIo, source, i, io_bytes,
                                      op_time, t0 + config_.mems_cycle});
  }
  if (!any) {
    set_running(false);
    return;
  }

  const Seconds next = CloseCycle(
      mems_side_, t0, busy, config_.mems_cycle, mems_lanes_[dev],
      {Completion::kCycleEnd, source}, striped ? -1 : source, shed_streams_);
  set_running(next < deadline);
  if (next >= deadline) return;
  if (striped) {
    sim_.ScheduleAt(next, [this, deadline]() { RunStripedCycle(deadline); });
  } else {
    sim_.ScheduleAt(next, [this, dev, deadline]() {
      RunReplicatedCycle(dev, deadline);
    });
  }
}

void CacheStreamingServer::CushionDeposit(std::size_t i, Bytes target_level) {
  const Seconds now = sim_.Now();
  const Bytes level = play_.LevelAt(i, now);
  if (level >= target_level) return;
  const Bytes bytes = target_level - level;
  play_.Deposit(i, now, bytes);
  if (trace_ != nullptr) {
    trace_->Append(now, sim::TraceKind::kNote, "degradation", play_.id(i),
                   bytes, "transition prefetch");
  }
}

void CacheStreamingServer::TransitionStream(std::size_t i, Placement target) {
  const Placement from = placement_[i];
  if (from == target) return;
  const Seconds now = sim_.Now();
  placement_[i] = target;
  fault::FaultInjector* faults = sinks_.faults;
  obs::QosAuditor* auditor = sinks_.auditor;

  if (target == Placement::kShed) {
    ++shed_streams_;
    play_.PausePlayback(i, now);
    if (auditor != nullptr) auditor->SetStreamActive(i, false);
    if (faults != nullptr) {
      faults->RecordShed(play_.id(i), now, mems_side_.stats.cycles);
    }
    telemetry_.MarkShed(i, now);
    if (from == Placement::kDisk) {
      disk_streams_.erase(
          std::remove(disk_streams_.begin(), disk_streams_.end(), i),
          disk_streams_.end());
    }
    return;
  }

  if (from == Placement::kShed) {
    --shed_streams_;
    if (auditor != nullptr) auditor->SetStreamActive(i, true);
    if (faults != nullptr) faults->RecordReadmit(play_.id(i), now);
    telemetry_.MarkReadmitted(i, now);
  }

  if (target == Placement::kDisk) {
    disk_streams_.push_back(i);
    if (streams_[i].cached) {
      // Disk fallback: the cached stream is still served, off its plan.
      telemetry_.MarkDegraded(i, now, 1);
    }
    if (auditor != nullptr) auditor->SetStreamDomain(i, obs::QosDomain::kDisk);
    // The stream keeps playing across the switch; bridge the gap until
    // its first disk-cycle deposit (up to one full boundary + batch).
    if (play_.playing(i)) {
      CushionDeposit(
          i, kDramBoundFactor * streams_[i].bit_rate * config_.disk_cycle);
    }
  } else {  // back to the cache path
    if (from == Placement::kDisk) {
      disk_streams_.erase(
          std::remove(disk_streams_.begin(), disk_streams_.end(), i),
          disk_streams_.end());
    }
    if (auditor != nullptr) {
      auditor->SetStreamDomain(i, obs::QosDomain::kMems, 0);
    }
  }
}

void CacheStreamingServer::RestartServiceLoops() {
  const Seconds now = sim_.Now();
  if (now >= horizon_) return;
  bool any_cached = false;
  for (std::size_t i : cache_streams_) {
    if (placement_[i] == Placement::kCache) any_cached = true;
  }
  if (config_.policy == model::CachePolicy::kReplicated) {
    // Re-spread the active cached streams round-robin over alive devices
    // (the paper's load balance, applied to the surviving bank).
    for (auto& a : replicated_assign_) a.clear();
    std::vector<std::size_t> alive;
    for (std::size_t d = 0; d < bank_.size(); ++d) {
      if (device_alive_[d]) alive.push_back(d);
    }
    if (!alive.empty()) {
      std::size_t next = 0;
      for (std::size_t i : cache_streams_) {
        if (placement_[i] != Placement::kCache) continue;
        const std::size_t dev = alive[next % alive.size()];
        replicated_assign_[dev].push_back(i);
        if (sinks_.auditor != nullptr) {
          sinks_.auditor->SetStreamDomain(
              i, obs::QosDomain::kMems, static_cast<std::int64_t>(dev));
        }
        ++next;
      }
      for (std::size_t dev : alive) {
        if (!replicated_assign_[dev].empty() &&
            !device_cycle_running_[dev]) {
          device_cycle_running_[dev] = true;
          sim_.ScheduleAt(now, [this, dev]() {
            RunReplicatedCycle(dev, horizon_);
          });
        }
      }
    }
  } else if (any_cached && !cache_halted_ && !striped_running_) {
    striped_running_ = true;
    sim_.ScheduleAt(now, [this]() { RunStripedCycle(horizon_); });
  }
  if (!disk_streams_.empty() && !disk_running_) {
    disk_running_ = true;
    sim_.ScheduleAt(now, [this]() { RunDiskCycle(horizon_); });
  }
}

void CacheStreamingServer::ApplyReplan(const fault::FaultEvent& cause) {
  if (config_.degradation == nullptr) return;
  const Seconds now = sim_.Now();

  const auto alive = static_cast<std::int64_t>(
      std::count(device_alive_.begin(), device_alive_.end(), true));
  const fault::CacheReplan plan = config_.degradation->Replan(alive);
  obs::QosAuditor* auditor = sinks_.auditor;
  if (sinks_.faults != nullptr) {
    sinks_.faults->RecordReplan(cause, now, plan.action);
  }
  cache_halted_ = plan.cache_down;

  const Seconds old_mems_cycle = config_.mems_cycle;
  const Seconds old_disk_cycle = config_.disk_cycle;
  if (plan.retained > 0 && plan.mems_cycle > 0) {
    config_.mems_cycle = plan.mems_cycle;
    if (auditor != nullptr) auditor->SetMemsCycle(plan.mems_cycle);
  }
  if (plan.to_disk > 0 && plan.disk_cycle > 0) {
    config_.disk_cycle = plan.disk_cycle;
    if (auditor != nullptr) auditor->SetDiskCycle(plan.disk_cycle);
    if (config_.disk_cycle > old_disk_cycle) {
      // The longer degraded disk cycle also stretches the deposit gap of
      // the streams already on the disk path; bridge it and let their
      // audited bound track the cushioned level.
      for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i].cached) continue;
        if (play_.playing(i)) {
          CushionDeposit(i, kDramBoundFactor * streams_[i].bit_rate *
                                config_.disk_cycle);
        }
        SetTransitionBound(i, config_.disk_cycle, old_disk_cycle);
      }
    }
  }

  // Place each cached stream: the first `retained` stay on the cache,
  // the next `to_disk` with a disk-resident copy fall back, the rest are
  // shed (deterministic: spec order, so the highest-indexed cached
  // streams are shed first when the plan keeps a prefix).
  std::int64_t cache_quota = plan.retained;
  std::int64_t disk_quota = plan.to_disk;
  for (std::size_t i : cache_streams_) {
    // One deposit of the stream's pre-plan schedule may still be in
    // flight; its cycle length feeds the transition bound below.
    const Seconds carry = placement_[i] == Placement::kCache
                              ? old_mems_cycle
                              : placement_[i] == Placement::kDisk
                                    ? old_disk_cycle
                                    : 0;
    if (cache_quota > 0) {
      --cache_quota;
      TransitionStream(i, Placement::kCache);
      // Longer degraded cycles leave a deposit gap at the switch; the
      // re-plan bridges it with the slack-funded prefetch.
      if (config_.mems_cycle > old_mems_cycle && play_.playing(i)) {
        CushionDeposit(i, streams_[i].bit_rate * config_.mems_cycle);
      }
      if (config_.mems_cycle > old_mems_cycle) {
        // Reshaped (stretched) MEMS cycle: served, but off the plan.
        telemetry_.MarkDegraded(i, now, 0);
      }
      SetTransitionBound(i, config_.mems_cycle, carry);
    } else if (disk_quota > 0 && streams_[i].backing_extent > 0) {
      --disk_quota;
      TransitionStream(i, Placement::kDisk);
      SetTransitionBound(i, config_.disk_cycle, carry);
    } else {
      TransitionStream(i, Placement::kShed);
    }
  }

  // The re-plan just re-sized per-stream buffers; the audited total
  // budget is their sum (shed streams keep their frozen sizing).
  if (auditor != nullptr) {
    Bytes total = 0;
    for (Bytes b : audited_bound_) total += b;
    auditor->SetDramTotalBound(total);
  }

  RestartServiceLoops();
}

void CacheStreamingServer::SetTransitionBound(std::size_t i, Seconds cycle,
                                              Seconds carry_cycle) {
  obs::QosAuditor* auditor = sinks_.auditor;
  if (auditor == nullptr) return;
  // Double-buffer bound on top of whatever the transition left in the
  // buffer (cushions + old-cycle deposits). Deposits land at IO
  // completion, so the old schedule can still deliver one
  // carry_cycle-sized batch after this re-plan ran; the bound admits it
  // and converges back to factor * B̄ * T once the carried bytes drain.
  const Bytes bound = play_.LevelAt(i, sim_.Now()) +
                      kDramBoundFactor * streams_[i].bit_rate * cycle +
                      streams_[i].bit_rate * carry_cycle;
  audited_bound_[i] = bound;
  auditor->SetStreamDramBound(i, bound);
}

void CacheStreamingServer::ApplyFaultEvent(const fault::FaultEvent& e) {
  const auto dev = static_cast<std::size_t>(e.device < 0 ? 0 : e.device);
  const bool failed = e.kind == fault::FaultKind::kMemsDeviceFail;
  if (dev < bank_.size()) {
    bank_[dev].SetFailed(failed);
    device_alive_[dev] = !failed;
  }
  if (!failed && config_.policy == model::CachePolicy::kStriped &&
      config_.degradation != nullptr) {
    // Striped content was lost with the device: the stripes must be
    // refilled from disk before cache service resumes.
    const Seconds ready =
        sim_.Now() + config_.degradation->config().refill_delay;
    if (ready < horizon_) {
      sim_.ScheduleAt(ready, [this, e]() { ApplyReplan(e); });
    }
    return;
  }
  ApplyReplan(e);
}

void CacheStreamingServer::StartPlayback(const PlaybackStart& s) {
  if (!play_.playing(s.session) && placement_[s.session] != Placement::kShed) {
    play_.StartPlayback(s.session, s.start);
  }
}

Status CacheStreamingServer::StartRun(Seconds duration) {
  // Deposits land at their true completion times, so trace records
  // interleave in time order and fault-driven re-plans (shed re-checks,
  // cushions, transitions) observe exactly the deposits made before them.
  const auto apply = [this](const Completion& c) { ApplyCompletion(c); };
  disk_lane_.Bind(&sim_, apply);
  mems_lanes_.resize(config_.policy == model::CachePolicy::kStriped
                         ? 1
                         : bank_.size());
  for (auto& lane : mems_lanes_) lane.Bind(&sim_, apply);
  // Mirror the auditor's initial per-stream sizings (media_server seeds
  // them as factor * B̄ * T of each stream's domain) so re-plans can
  // re-derive the total DRAM budget from the bounds they install.
  audited_bound_.resize(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    audited_bound_[i] =
        kDramBoundFactor * streams_[i].bit_rate *
        (streams_[i].cached ? config_.mems_cycle : config_.disk_cycle);
  }

  if (!disk_streams_.empty()) {
    disk_running_ = true;
    MEMSTREAM_RETURN_IF_ERROR(
        sim_.Schedule(0, [this, duration]() { RunDiskCycle(duration); }));
  }
  if (cache_streams_.empty()) return Status::OK();
  if (config_.policy == model::CachePolicy::kStriped) {
    striped_running_ = true;
    return sim_.Schedule(0,
                         [this, duration]() { RunStripedCycle(duration); });
  }
  for (std::size_t d = 0; d < bank_.size(); ++d) {
    if (replicated_assign_[d].empty()) continue;
    device_cycle_running_[d] = true;
    MEMSTREAM_RETURN_IF_ERROR(sim_.Schedule(
        0, [this, d, duration]() { RunReplicatedCycle(d, duration); }));
  }
  return Status::OK();
}

void CacheStreamingServer::CloseRun() {
  obs::MetricsRegistry* metrics = sinks_.metrics;
  if (metrics == nullptr || config_.degradation == nullptr) return;
  const model::SolveMemoStats& memo = config_.degradation->replan_stats();
  metrics->gauge("prof.server.cache.replan_memo_hits")
      ->Set(static_cast<double>(memo.hits));
  metrics->gauge("prof.server.cache.replan_memo_misses")
      ->Set(static_cast<double>(memo.misses));
  metrics->gauge("prof.server.cache.replan_memo_mismatches")
      ->Set(static_cast<double>(memo.mismatches));
}

}  // namespace memstream::server
