#include "server/cache_server.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/profiler.h"
#include "obs/exporters.h"

namespace memstream::server {

namespace {
/// Trace actor of the striped bank's lock-step cycle.
constexpr std::string_view kStripedActor = "mems-striped";
}  // namespace

Result<CacheStreamingServer> CacheStreamingServer::Create(
    device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
    std::vector<CacheStreamSpec> streams, const CacheServerConfig& config,
    sim::TraceLog* trace) {
  if (bank.empty()) return Status::InvalidArgument("bank must not be empty");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.disk_cycle <= 0 || config.mems_cycle <= 0) {
    return Status::InvalidArgument("cycle lengths must be > 0");
  }
  const Bytes bank_content =
      config.policy == model::CachePolicy::kStriped
          ? bank[0].Capacity() * static_cast<double>(bank.size())
          : bank[0].Capacity();
  bool any_disk = false;
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
      any_disk = true;
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
  (void)any_disk;
  if (config.auditor != nullptr &&
      config.auditor->num_streams() != streams.size()) {
    return Status::InvalidArgument(
        "auditor stream registration does not match the stream set");
  }
  return CacheStreamingServer(disk, std::move(bank), std::move(streams),
                              config, trace);
}

CacheStreamingServer::CacheStreamingServer(
    device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
    std::vector<CacheStreamSpec> streams, const CacheServerConfig& config,
    sim::TraceLog* trace)
    : disk_(disk),
      bank_(std::move(bank)),
      streams_(std::move(streams)),
      config_(config),
      trace_(trace),
      rng_(config.seed) {
  play_cursor_.assign(streams_.size(), 0);
  device_busy_.assign(bank_.size(), 0);
  if (disk_ != nullptr) disk_name_ = disk_->name();
  for (const auto& dev : bank_) bank_names_.push_back(dev.name());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    play_.Add(streams_[i].id, streams_[i].bit_rate);
    if (streams_[i].cached) {
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

  // Resolve telemetry handles once; hot-path updates are null-guarded.
  obs::MetricsRegistry* metrics = config_.metrics;
  dram_occupancy_.assign(play_.size(), nullptr);
  if (metrics != nullptr) {
    const double disk_ms = config_.disk_cycle / kMillisecond;
    const double mems_ms = config_.mems_cycle / kMillisecond;
    disk_slack_hist_ = metrics->histogram("server.cache.disk.cycle_slack_ms",
                                          {-disk_ms, disk_ms, 40});
    mems_slack_hist_ = metrics->histogram("server.cache.mems.cycle_slack_ms",
                                          {-mems_ms, mems_ms, 40});
    disk_cycles_metric_ = metrics->counter("server.cache.disk.cycles");
    mems_cycles_metric_ = metrics->counter("server.cache.mems.cycles");
    ios_metric_ = metrics->counter("server.cache.ios");
    for (std::size_t i = 0; i < play_.size(); ++i) {
      dram_occupancy_[i] = metrics->time_weighted(
          "stream." + std::to_string(play_.id(i)) + ".dram_bytes");
    }
  }
  journal_ = config_.journal;
  jslot_.assign(streams_.size(), -1);
  uf_seen_.assign(streams_.size(), 0);
  if (journal_ != nullptr) {
    const double factor =
        config_.dram_bound_factor > 0 ? config_.dram_bound_factor : 2.0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const auto& s = streams_[i];
      // Cached streams live under the Theorem-3/4 MEMS-cycle envelope,
      // disk streams under Theorem 1's (matching the audited bounds).
      const Bytes envelope =
          factor * s.bit_rate *
          (s.cached ? config_.mems_cycle : config_.disk_cycle);
      jslot_[i] = static_cast<std::ptrdiff_t>(
          journal_->EnsureStream(s.id, s.bit_rate, envelope, 0.0));
    }
  }
  if (config_.slo != nullptr) {
    slo_underflow_ = config_.slo->Add(obs::StandardUnderflowSlo());
    slo_slack_ = config_.slo->Add(obs::StandardCycleSlackSlo());
    slo_availability_ = config_.slo->Add(obs::StandardAvailabilitySlo());
  }
  dram_series_.assign(play_.size(), nullptr);
  if (obs::TimelineRecorder* tl = config_.timelines; tl != nullptr) {
    for (std::size_t i = 0; i < play_.size(); ++i) {
      dram_series_[i] = tl->AddSeries(
          "stream." + std::to_string(play_.id(i)) + ".dram_bytes",
          "bytes");
    }
  }
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
  obs::Update(dram_occupancy_[stream], done, level);
  obs::Record(dram_series_[stream], done, level);
  obs::RecordDramLevel(config_.auditor, stream, done, level);
  obs::JournalIo(journal_, jslot_[stream], done, c.bytes, level);
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

  // Batch scratch lives in the arena: one IoSpan + serviced index per
  // active disk stream, recycled every cycle (zero steady-state heap
  // traffic).
  arena_.Reset();
  auto* batch = arena_.Alloc<device::IoSpan>(disk_streams_.size());
  auto* serviced =
      arena_.Alloc<std::size_t>(disk_streams_.size());  ///< stream index
  std::size_t n = 0;
  for (std::size_t i : disk_streams_) {
    if (placement_[i] == Placement::kShed) continue;
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.disk_cycle;
    const Bytes extent = EffExtent(i);
    Bytes cursor = play_cursor_[i];
    if (cursor + io_bytes > extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;
    batch[n] = device::IoSpan{
        static_cast<std::int64_t>(EffOffset(i) + cursor), io_bytes};
    serviced[n] = i;
    ++n;
  }
  if (n == 0) {
    disk_running_ = false;
    return;
  }

  auto* order = arena_.Alloc<std::size_t>(n);
  auto* scratch = arena_.Alloc<std::size_t>(n);
  device::ScheduleOrderInto(config_.disk_policy, last_head_offset_, batch,
                            n, order, scratch);
  Seconds busy = 0;
  for (std::size_t oi = 0; oi < n; ++oi) {
    const std::size_t pos = order[oi];
    auto st = disk_->Service(batch[pos],
                             config_.deterministic ? nullptr : &rng_);
    if (!st.ok()) continue;  // unreachable: validated in Create
    Seconds service = st.value();
    if (config_.faults != nullptr) {
      // Latency-spike fault: every disk IO in the window pays the extra.
      service += config_.faults->DiskIoPenalty(t0 + busy);
    }
    busy += service;
    last_head_offset_ = batch[pos].offset;
    ++report_.ios_completed;
    obs::Increment(ios_metric_);
    obs::RecordIo(config_.auditor, serviced[pos], batch[pos].bytes);
    disk_lane_.Push(t0 + busy,
                    {Completion::kIo, kDiskSource, serviced[pos],
                     batch[pos].bytes, service, t0 + config_.disk_cycle});
  }

  report_.disk_busy += busy;
  const bool overrun = busy > config_.disk_cycle * (1.0 + 1e-9);
  if (overrun) ++report_.disk_overruns;
  ++report_.disk_cycles;
  obs::Increment(disk_cycles_metric_);
  obs::Observe(disk_slack_hist_, (config_.disk_cycle - busy) / kMillisecond);
  obs::EndDiskCycle(config_.auditor, t0, busy);
  ObserveCycleOutcomes(t0 + busy, overrun);
  if (trace_ != nullptr && busy > 0) {
    // Queued behind the cycle's completions so the record lands in time
    // order among the IO records.
    disk_lane_.Push(t0 + busy,
                    {Completion::kCycleEnd, kDiskSource, 0, 0, busy, 0});
  }

  const Seconds next = t0 + std::max(config_.disk_cycle, busy);
  if (next < deadline) {
    disk_running_ = true;
    sim_.ScheduleAt(next, [this, deadline]() { RunDiskCycle(deadline); });
  } else {
    disk_running_ = false;
  }
}

void CacheStreamingServer::RunStripedCycle(Seconds deadline) {
  PROF_SCOPE("server.cache.striped_mems_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline || cache_streams_.empty() || cache_halted_) {
    striped_running_ = false;
    return;
  }

  const auto k = static_cast<double>(bank_.size());
  Seconds busy = 0;
  bool any = false;
  for (std::size_t i : cache_streams_) {
    if (placement_[i] != Placement::kCache) continue;
    any = true;
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.mems_cycle;
    Bytes cursor = play_cursor_[i];
    if (cursor + io_bytes > s.extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;

    // Lock-step: every device transfers io_bytes/k at the same relative
    // location; the elapsed time is the common per-device time. Every
    // stripe needs all k devices (Corollary 3) — with any of them failed
    // the read yields nothing, so the stream starves unless a
    // DegradationManager halted the cache and re-planned.
    const device::IoSpan local{
        static_cast<std::int64_t>((s.offset + cursor) / k), io_bytes / k};
    Seconds op_time = 0;
    bool stripe_ok = true;
    for (auto& dev : bank_) {
      auto st = dev.Service(local, nullptr);
      if (!st.ok()) {
        stripe_ok = false;
        continue;
      }
      op_time = std::max(op_time, st.value());
    }
    busy += op_time;
    if (!stripe_ok) continue;
    ++report_.ios_completed;
    obs::Increment(ios_metric_);
    obs::RecordIo(config_.auditor, i, io_bytes);
    mems_lanes_[0].Push(t0 + busy,
                        {Completion::kIo, kStripedSource, i, io_bytes,
                         op_time, t0 + config_.mems_cycle});
  }
  if (!any) {
    striped_running_ = false;
    return;
  }

  for (auto& b : device_busy_) b += busy;  // all devices move together
  report_.mems_busy += busy * k;
  const bool overrun = busy > config_.mems_cycle * (1.0 + 1e-9);
  if (overrun) ++report_.mems_overruns;
  ++report_.mems_cycles;
  obs::Increment(mems_cycles_metric_);
  obs::Observe(mems_slack_hist_, (config_.mems_cycle - busy) / kMillisecond);
  obs::EndMemsCycle(config_.auditor, -1, t0, busy);
  ObserveCycleOutcomes(t0 + busy, overrun);
  if (trace_ != nullptr && busy > 0) {
    mems_lanes_[0].Push(
        t0 + busy, {Completion::kCycleEnd, kStripedSource, 0, 0, busy, 0});
  }

  const Seconds next = t0 + std::max(config_.mems_cycle, busy);
  if (next < deadline) {
    striped_running_ = true;
    sim_.ScheduleAt(next, [this, deadline]() { RunStripedCycle(deadline); });
  } else {
    striped_running_ = false;
  }
}

void CacheStreamingServer::RunReplicatedCycle(std::size_t dev,
                                              Seconds deadline) {
  PROF_SCOPE("server.cache.replicated_mems_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline || !device_alive_[dev]) {
    device_cycle_running_[dev] = false;
    return;
  }

  // Device `dev` services its assigned cached streams (initially every
  // (dev + j*k)-th; rebuilt over alive devices after degradation).
  const auto source = static_cast<std::int32_t>(dev);
  Seconds busy = 0;
  bool any = false;
  for (std::size_t i : replicated_assign_[dev]) {
    if (placement_[i] != Placement::kCache) continue;
    any = true;
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.mems_cycle;
    Bytes cursor = play_cursor_[i];
    if (cursor + io_bytes > s.extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;

    auto st = bank_[dev].Service(
        device::IoSpan{static_cast<std::int64_t>(s.offset + cursor),
                       io_bytes},
        nullptr);
    if (!st.ok()) continue;  // failed device: loop exits via device_alive_
    busy += st.value();
    ++report_.ios_completed;
    obs::Increment(ios_metric_);
    obs::RecordIo(config_.auditor, i, io_bytes);
    mems_lanes_[dev].Push(t0 + busy,
                          {Completion::kIo, source, i, io_bytes, st.value(),
                           t0 + config_.mems_cycle});
  }
  if (!any) {
    device_cycle_running_[dev] = false;
    return;
  }

  device_busy_[dev] += busy;
  report_.mems_busy += busy;
  const bool overrun = busy > config_.mems_cycle * (1.0 + 1e-9);
  if (overrun) ++report_.mems_overruns;
  ++report_.mems_cycles;
  obs::Increment(mems_cycles_metric_);
  obs::Observe(mems_slack_hist_, (config_.mems_cycle - busy) / kMillisecond);
  obs::EndMemsCycle(config_.auditor, static_cast<std::int64_t>(dev), t0,
                    busy);
  ObserveCycleOutcomes(t0 + busy, overrun);
  if (trace_ != nullptr && busy > 0) {
    mems_lanes_[dev].Push(t0 + busy,
                          {Completion::kCycleEnd, source, 0, 0, busy, 0});
  }

  const Seconds next = t0 + std::max(config_.mems_cycle, busy);
  if (next < deadline) {
    device_cycle_running_[dev] = true;
    sim_.ScheduleAt(next, [this, dev, deadline]() {
      RunReplicatedCycle(dev, deadline);
    });
  } else {
    device_cycle_running_[dev] = false;
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
  fault::FaultInjector* faults = config_.faults;

  if (target == Placement::kShed) {
    play_.PausePlayback(i, now);
    if (config_.auditor != nullptr) config_.auditor->SetStreamActive(i, false);
    if (faults != nullptr) {
      faults->RecordShed(play_.id(i), now, report_.mems_cycles);
    }
    if (journal_ != nullptr && jslot_[i] >= 0) {
      journal_->MarkShed(static_cast<std::size_t>(jslot_[i]), now);
    }
    if (from == Placement::kDisk) {
      disk_streams_.erase(
          std::remove(disk_streams_.begin(), disk_streams_.end(), i),
          disk_streams_.end());
    }
    return;
  }

  if (from == Placement::kShed) {
    if (config_.auditor != nullptr) config_.auditor->SetStreamActive(i, true);
    if (faults != nullptr) faults->RecordReadmit(play_.id(i), now);
    if (journal_ != nullptr && jslot_[i] >= 0) {
      journal_->MarkReadmitted(static_cast<std::size_t>(jslot_[i]), now);
    }
  }

  if (target == Placement::kDisk) {
    disk_streams_.push_back(i);
    if (journal_ != nullptr && jslot_[i] >= 0 && streams_[i].cached) {
      // Disk fallback: the cached stream is still served, off its plan.
      journal_->MarkDegraded(static_cast<std::size_t>(jslot_[i]), now, 1);
    }
    if (config_.auditor != nullptr) {
      config_.auditor->SetStreamDomain(i, obs::QosDomain::kDisk);
    }
    // The stream keeps playing across the switch; bridge the gap until
    // its first disk-cycle deposit (up to one full boundary + batch).
    if (play_.playing(i)) {
      CushionDeposit(i, config_.dram_bound_factor * streams_[i].bit_rate *
                            config_.disk_cycle);
    }
  } else {  // back to the cache path
    if (from == Placement::kDisk) {
      disk_streams_.erase(
          std::remove(disk_streams_.begin(), disk_streams_.end(), i),
          disk_streams_.end());
    }
    if (config_.auditor != nullptr) {
      config_.auditor->SetStreamDomain(i, obs::QosDomain::kMems, 0);
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
        if (config_.auditor != nullptr) {
          config_.auditor->SetStreamDomain(
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

  std::int64_t alive = 0;
  double rate_scale = 1.0;
  for (std::size_t d = 0; d < bank_.size(); ++d) {
    if (!device_alive_[d]) continue;
    ++alive;
    rate_scale = std::min(rate_scale, bank_[d].rate_scale());
  }
  const fault::CacheReplan plan =
      config_.degradation->Replan(alive, rate_scale);
  if (config_.faults != nullptr) {
    config_.faults->RecordReplan(cause, now, plan.action);
  }
  cache_halted_ = plan.cache_down;

  const Seconds old_mems_cycle = config_.mems_cycle;
  const Seconds old_disk_cycle = config_.disk_cycle;
  if (plan.retained > 0 && plan.mems_cycle > 0) {
    config_.mems_cycle = plan.mems_cycle;
    if (config_.auditor != nullptr) {
      config_.auditor->SetMemsCycle(plan.mems_cycle);
    }
  }
  if (plan.to_disk > 0 && plan.disk_cycle > 0) {
    config_.disk_cycle = plan.disk_cycle;
    if (config_.auditor != nullptr) {
      config_.auditor->SetDiskCycle(plan.disk_cycle);
    }
    if (config_.disk_cycle > old_disk_cycle) {
      // The longer degraded disk cycle also stretches the deposit gap of
      // the streams already on the disk path; bridge it and let their
      // audited bound track the cushioned level.
      for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i].cached) continue;
        if (play_.playing(i)) {
          CushionDeposit(i, config_.dram_bound_factor *
                                streams_[i].bit_rate * config_.disk_cycle);
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
      if (config_.mems_cycle > old_mems_cycle && journal_ != nullptr &&
          jslot_[i] >= 0) {
        // Reshaped (stretched) MEMS cycle: served, but off the plan.
        journal_->MarkDegraded(static_cast<std::size_t>(jslot_[i]), now, 0);
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
  if (config_.auditor != nullptr) {
    Bytes total = 0;
    for (Bytes b : audited_bound_) total += b;
    config_.auditor->SetDramTotalBound(total);
  }

  RestartServiceLoops();
}

void CacheStreamingServer::SetTransitionBound(std::size_t i, Seconds cycle,
                                              Seconds carry_cycle) {
  if (config_.auditor == nullptr || config_.dram_bound_factor <= 0) return;
  // Double-buffer bound on top of whatever the transition left in the
  // buffer (cushions + old-cycle deposits). Deposits land at IO
  // completion, so the old schedule can still deliver one
  // carry_cycle-sized batch after this re-plan ran; the bound admits it
  // and converges back to factor * B̄ * T once the carried bytes drain.
  const Bytes bound = play_.LevelAt(i, sim_.Now()) +
                      config_.dram_bound_factor * streams_[i].bit_rate * cycle +
                      streams_[i].bit_rate * carry_cycle;
  audited_bound_[i] = bound;
  config_.auditor->SetStreamDramBound(i, bound);
}

void CacheStreamingServer::ApplyFaultEvent(const fault::FaultEvent& e) {
  const auto dev = static_cast<std::size_t>(e.device < 0 ? 0 : e.device);
  switch (e.kind) {
    case fault::FaultKind::kMemsTipLoss:
      if (dev < bank_.size()) bank_[dev].ApplyTipLoss(e.magnitude);
      ApplyReplan(e);
      break;
    case fault::FaultKind::kMemsDeviceFail:
      if (dev < bank_.size()) {
        bank_[dev].SetFailed(true);
        device_alive_[dev] = false;
      }
      ApplyReplan(e);
      break;
    case fault::FaultKind::kMemsDeviceRepair: {
      if (dev < bank_.size()) {
        bank_[dev].SetFailed(false);
        device_alive_[dev] = true;
      }
      if (config_.policy == model::CachePolicy::kStriped &&
          config_.degradation != nullptr) {
        // Striped content was lost with the device: the stripes must be
        // refilled from disk before cache service resumes.
        const Seconds ready =
            sim_.Now() + config_.degradation->config().refill_delay;
        if (ready < horizon_) {
          sim_.ScheduleAt(ready, [this, e]() { ApplyReplan(e); });
        }
      } else {
        ApplyReplan(e);
      }
      break;
    }
    case fault::FaultKind::kDiskLatencySpike:
    case fault::FaultKind::kDramPressure:
      break;  // window faults act through the injector's time queries
  }
}

Status CacheStreamingServer::Run(Seconds duration) {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  ran_ = true;
  horizon_ = duration;
  // Deposits land at their true completion times, so trace records
  // interleave in time order and fault-driven re-plans (shed re-checks,
  // cushions, transitions) observe exactly the deposits made before them.
  const auto apply = [this](const Completion& c) { ApplyCompletion(c); };
  disk_lane_.Bind(&sim_, apply);
  mems_lanes_.resize(config_.policy == model::CachePolicy::kStriped
                         ? 1
                         : bank_.size());
  for (auto& lane : mems_lanes_) lane.Bind(&sim_, apply);
  starts_.Bind(&sim_, [this](const PlaybackStart& s) {
    // Re-check: the stream may have been shed between the deposit and
    // the playback boundary.
    if (!play_.playing(s.session) &&
        placement_[s.session] != Placement::kShed) {
      play_.StartPlayback(s.session, s.start);
    }
  });
  // Mirror the auditor's initial per-stream sizings (media_server seeds
  // them as factor * B̄ * T of each stream's domain) so re-plans can
  // re-derive the total DRAM budget from the bounds they install.
  audited_bound_.resize(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    audited_bound_[i] =
        config_.dram_bound_factor * streams_[i].bit_rate *
        (streams_[i].cached ? config_.mems_cycle : config_.disk_cycle);
  }

  if (!disk_streams_.empty()) {
    disk_running_ = true;
    MEMSTREAM_RETURN_IF_ERROR(
        sim_.Schedule(0, [this, duration]() { RunDiskCycle(duration); }));
  }
  if (!cache_streams_.empty()) {
    if (config_.policy == model::CachePolicy::kStriped) {
      striped_running_ = true;
      MEMSTREAM_RETURN_IF_ERROR(sim_.Schedule(
          0, [this, duration]() { RunStripedCycle(duration); }));
    } else {
      for (std::size_t d = 0; d < bank_.size(); ++d) {
        if (replicated_assign_[d].empty()) continue;
        device_cycle_running_[d] = true;
        MEMSTREAM_RETURN_IF_ERROR(sim_.Schedule(
            0, [this, d, duration]() { RunReplicatedCycle(d, duration); }));
      }
    }
  }
  if (config_.faults != nullptr) {
    MEMSTREAM_RETURN_IF_ERROR(config_.faults->ScheduleIn(
        sim_, [this](const fault::FaultEvent& e) { ApplyFaultEvent(e); }));
  }
  auto processed = sim_.Run(duration);
  MEMSTREAM_RETURN_IF_ERROR(processed.status());
  if (config_.faults != nullptr) config_.faults->Finalize(duration);

  report_.horizon = duration;
  report_.disk_utilization =
      duration > 0 ? std::min(report_.disk_busy, duration) / duration : 0;
  Seconds busy_sum = 0;
  for (Seconds b : device_busy_) busy_sum += b;
  report_.mems_utilization =
      duration > 0
          ? busy_sum / (duration * static_cast<double>(bank_.size()))
          : 0;
  for (std::size_t i = 0; i < play_.size(); ++i) {
    play_.LevelAt(i, duration);
    report_.qos.AbsorbPlayback(play_.view(i));
    report_.peak_dram_demand += play_.peak_level(i);
  }
  if (config_.auditor != nullptr) {
    report_.qos.violations = config_.auditor->total_violations();
  }
  obs::WarnDroppedTelemetry(trace_, "cache server");
  if (journal_ != nullptr) {
    for (std::size_t i = 0; i < play_.size(); ++i) {
      const std::int64_t delta = play_.underflow_events(i) - uf_seen_[i];
      uf_seen_[i] += delta;
      obs::JournalUnderflows(journal_, jslot_[i], duration, delta);
      if (jslot_[i] >= 0) {
        journal_->MarkDeparted(static_cast<std::size_t>(jslot_[i]),
                               duration);
      }
    }
  }

  if (obs::MetricsRegistry* metrics = config_.metrics; metrics != nullptr) {
    metrics->gauge("server.cache.underflow_events")
        ->Set(static_cast<double>(report_.qos.underflow_events));
    metrics->gauge("server.cache.underflow_time_s")
        ->Set(report_.qos.underflow_time);
    metrics->gauge("server.cache.disk.overruns")
        ->Set(static_cast<double>(report_.disk_overruns));
    metrics->gauge("server.cache.mems.overruns")
        ->Set(static_cast<double>(report_.mems_overruns));
    metrics->gauge("server.cache.disk.utilization")
        ->Set(report_.disk_utilization);
    metrics->gauge("server.cache.mems.utilization")
        ->Set(report_.mems_utilization);
    metrics->gauge("server.cache.peak_dram_bytes")
        ->Set(report_.peak_dram_demand);
    metrics->gauge("prof.server.cache.arena_high_water_bytes")
        ->Set(static_cast<double>(arena_.high_water()));
    if (config_.degradation != nullptr) {
      const model::SolveMemoStats& memo = config_.degradation->replan_stats();
      metrics->gauge("prof.server.cache.replan_memo_hits")
          ->Set(static_cast<double>(memo.hits));
      metrics->gauge("prof.server.cache.replan_memo_misses")
          ->Set(static_cast<double>(memo.misses));
      metrics->gauge("prof.server.cache.replan_memo_mismatches")
          ->Set(static_cast<double>(memo.mismatches));
    }
    if (disk_ != nullptr) obs::ExportDeviceStats(metrics, *disk_, duration);
    for (const auto& dev : bank_) {
      obs::ExportDeviceStats(metrics, dev, duration);
    }
    obs::ExportSimulatorStats(metrics, sim_);
  }
  return Status::OK();
}

void CacheStreamingServer::ObserveCycleOutcomes(Seconds now, bool overrun) {
  obs::SloRecord(slo_slack_, now, overrun ? 0 : 1, overrun ? 1 : 0);
  if (journal_ == nullptr && slo_underflow_ == nullptr &&
      slo_availability_ == nullptr) {
    return;
  }
  // Underflow delta scan: the playback batch counts events cumulatively,
  // so the delta against uf_seen_ attributes new events to this cycle.
  std::int64_t uf_streams = 0;
  std::int64_t shed = 0;
  for (std::size_t i = 0; i < play_.size(); ++i) {
    const std::int64_t delta = play_.underflow_events(i) - uf_seen_[i];
    if (delta > 0) {
      uf_seen_[i] += delta;
      ++uf_streams;
      obs::JournalUnderflows(journal_, jslot_[i], now, delta);
    }
    if (placement_[i] == Placement::kShed) ++shed;
  }
  const auto n = static_cast<std::int64_t>(play_.size());
  if (slo_underflow_ != nullptr && n > 0) {
    slo_underflow_->Record(now, n - uf_streams, uf_streams);
  }
  // Availability under faults: every shed stream-cycle burns the budget.
  if (slo_availability_ != nullptr && n > 0) {
    slo_availability_->Record(now, n - shed, shed);
  }
}

}  // namespace memstream::server
