#include "server/mems_pipeline_server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
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

Result<MemsPipelineServer> MemsPipelineServer::Create(
    device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
    std::vector<StreamSpec> streams, const MemsPipelineConfig& config,
    sim::TraceLog* trace) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (bank.empty()) return Status::InvalidArgument("bank must not be empty");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.t_disk <= 0 || config.t_mems <= 0) {
    return Status::InvalidArgument("cycle lengths must be > 0");
  }
  if (config.t_mems > config.t_disk) {
    return Status::InvalidArgument("t_mems must not exceed t_disk (Eq. 8)");
  }
  const std::size_t k = bank.size();
  const bool striped =
      config.placement == model::BufferPlacement::kStripedIos;
  // Streams per device under round-robin assignment (striping puts a
  // 1/k share of every stream on every device).
  std::vector<std::size_t> assigned(k, striped ? streams.size() : 0);
  if (!striped) {
    for (std::size_t i = 0; i < streams.size(); ++i) ++assigned[i % k];
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& s = streams[i];
    if (s.bit_rate <= 0) {
      return Status::InvalidArgument("stream bit_rate must be > 0");
    }
    if (s.extent <= 0 || s.disk_offset + s.extent > disk->Capacity()) {
      return Status::OutOfRange("stream extent beyond disk capacity");
    }
    if (s.bit_rate * config.t_disk > s.extent) {
      return Status::InvalidArgument("extent smaller than one disk IO");
    }
    // Executable analogue of condition (7): the stream's slot must hold
    // two disk IOs (one draining, one arriving) plus one DRAM IO.
    const std::size_t home = striped ? 0 : i % k;
    const Bytes slot =
        bank[home].Capacity() / static_cast<double>(assigned[home]);
    const Bytes need = s.bit_rate *
                       (2.0 * config.t_disk + config.t_mems) /
                       (striped ? static_cast<double>(k) : 1.0);
    if (need > slot) {
      return Status::Infeasible(
          "MEMS capacity insufficient for the chosen T_disk (condition 7)");
    }
  }
  if (config.auditor != nullptr &&
      config.auditor->num_streams() != streams.size()) {
    return Status::InvalidArgument(
        "auditor stream registration does not match the stream set");
  }
  return MemsPipelineServer(disk, std::move(bank), std::move(streams),
                            config, trace);
}

MemsPipelineServer::MemsPipelineServer(device::DiskDrive* disk,
                                       std::vector<device::MemsDevice> bank,
                                       std::vector<StreamSpec> streams,
                                       const MemsPipelineConfig& config,
                                       sim::TraceLog* trace)
    : disk_(disk),
      bank_(std::move(bank)),
      streams_(std::move(streams)),
      config_(config),
      trace_(trace),
      rng_(config.seed) {
  const std::size_t k = bank_.size();
  disk_name_ = disk_->name();
  for (const auto& dev : bank_) bank_names_.push_back(dev.name());
  pending_.resize(k);
  occupancy_.assign(k, 0);
  device_busy_.assign(k, 0);
  play_cursor_.assign(streams_.size(), 0);
  device_.assign(streams_.size(), 0);
  slot_base_.assign(streams_.size(), 0);
  slot_size_.assign(streams_.size(), 0);
  write_cursor_.assign(streams_.size(), 0);
  read_cursor_.assign(streams_.size(), 0);
  resident_.assign(streams_.size(), 0);
  read_deficit_.assign(streams_.size(), 0);
  first_write_done_.assign(streams_.size(), 0);

  const bool striped =
      config_.placement == model::BufferPlacement::kStripedIos;
  std::vector<std::size_t> assigned(k, striped ? streams_.size() : 0);
  if (!striped) {
    for (std::size_t i = 0; i < streams_.size(); ++i) ++assigned[i % k];
  }
  std::vector<std::size_t> slot_index(k, 0);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    play_.Add(streams_[i].id, streams_[i].bit_rate);
    // Striping: the same 1/k-sized slot exists on every device; device 0
    // stands in for the lock-step group (all writes/reads route through
    // the shared pending queue and the single striped cycle).
    const std::size_t dev = striped ? 0 : i % k;
    device_[i] = dev;
    slot_size_[i] =
        bank_[dev].Capacity() / static_cast<double>(assigned[dev]);
    slot_base_[i] = slot_size_[i] * static_cast<double>(slot_index[dev]++);
  }

  // Resolve telemetry handles once; hot-path updates are null-guarded.
  obs::MetricsRegistry* metrics = config_.metrics;
  dram_occupancy_.assign(streams_.size(), nullptr);
  mems_occupancy_.assign(k, nullptr);
  if (metrics != nullptr) {
    const double t_disk_ms = config_.t_disk / kMillisecond;
    const double t_mems_ms = config_.t_mems / kMillisecond;
    disk_slack_hist_ = metrics->histogram(
        "server.pipeline.disk.cycle_slack_ms", {-t_disk_ms, t_disk_ms, 40});
    mems_slack_hist_ = metrics->histogram(
        "server.pipeline.mems.cycle_slack_ms", {-t_mems_ms, t_mems_ms, 40});
    disk_cycles_metric_ = metrics->counter("server.pipeline.disk.cycles");
    mems_cycles_metric_ = metrics->counter("server.pipeline.mems.cycles");
    ios_metric_ = metrics->counter("server.pipeline.ios");
    starved_metric_ = metrics->counter("server.pipeline.starved_reads");
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      dram_occupancy_[i] = metrics->time_weighted(
          "stream." + std::to_string(streams_[i].id) + ".dram_bytes");
    }
    for (std::size_t d = 0; d < k; ++d) {
      mems_occupancy_[d] = metrics->time_weighted(
          "device." + bank_[d].name() + ".occupancy_bytes");
    }
  }
  journal_ = config_.journal;
  jslot_.assign(streams_.size(), -1);
  uf_seen_.assign(streams_.size(), 0);
  if (journal_ != nullptr) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const auto& s = streams_[i];
      // Theorem 2: buffering through MEMS shrinks the per-stream DRAM
      // envelope from 2*B*T_disk to 2*B*T_mems.
      jslot_[i] = static_cast<std::ptrdiff_t>(journal_->EnsureStream(
          s.id, s.bit_rate, 2.0 * s.bit_rate * config_.t_mems, 0.0));
    }
  }
  if (config_.slo != nullptr) {
    slo_underflow_ = config_.slo->Add(obs::StandardUnderflowSlo());
    slo_slack_ = config_.slo->Add(obs::StandardCycleSlackSlo());
  }
  dram_series_.assign(streams_.size(), nullptr);
  mems_series_.assign(k, nullptr);
  if (obs::TimelineRecorder* tl = config_.timelines; tl != nullptr) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      dram_series_[i] = tl->AddSeries(
          "stream." + std::to_string(streams_[i].id) + ".dram_bytes",
          "bytes");
    }
    for (std::size_t d = 0; d < k; ++d) {
      mems_series_[d] = tl->AddSeries(
          "device." + bank_[d].name() + ".occupancy_bytes", "bytes");
    }
  }
}

void MemsPipelineServer::RunDiskCycle(Seconds deadline) {
  PROF_SCOPE("server.pipeline.disk_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  // Batch scratch lives in the arena, recycled every cycle (the arena is
  // shared with the MEMS cycles — each cycle body runs to completion
  // before the next event fires, so Reset() here is safe).
  arena_.Reset();
  const std::size_t n = streams_.size();
  auto* batch = arena_.Alloc<device::IoSpan>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.t_disk;
    Bytes cursor = play_cursor_[i];
    if (cursor + io_bytes > s.extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;
    batch[i] = device::IoSpan{
        static_cast<std::int64_t>(s.disk_offset + cursor), io_bytes};
  }

  if (trace_ != nullptr) {
    char label[40];
    std::snprintf(label, sizeof(label), "disk cycle %lld",
                  static_cast<long long>(report_.disk_cycles));
    trace_->Append(t0, sim::TraceKind::kCycleStart, disk_name_, -1, 0,
                   label);
  }

  auto* order = arena_.Alloc<std::size_t>(n);
  auto* scratch = arena_.Alloc<std::size_t>(n);
  device::ScheduleOrderInto(config_.disk_policy, last_head_offset_, batch,
                            n, order, scratch);
  Seconds busy = 0;
  for (std::size_t oi = 0; oi < n; ++oi) {
    const std::size_t idx = order[oi];
    auto st = disk_->Service(batch[idx],
                             config_.deterministic ? nullptr : &rng_);
    if (!st.ok()) continue;  // unreachable: validated in Create
    Seconds service = st.value();
    if (config_.faults != nullptr) {
      service += config_.faults->DiskIoPenalty(t0 + busy);
    }
    busy += service;
    last_head_offset_ = batch[idx].offset;
    const Bytes bytes = batch[idx].bytes;
    obs::RecordIo(config_.auditor, idx, bytes);
    // The write joins its MEMS device's pending queue at its done time:
    // the MEMS cycles must see exactly the writes whose completion
    // precedes their cycle start, which the lane's (time, seq) order
    // guarantees.
    disk_lane_.Push(t0 + busy, {DiskCompletion::kIo, idx, bytes, service});
  }

  report_.disk_busy += busy;
  const bool overrun = busy > config_.t_disk * (1.0 + 1e-9);
  if (overrun) ++report_.disk_overruns;
  ++report_.disk_cycles;
  report_.ios_completed += static_cast<std::int64_t>(n);
  obs::Increment(disk_cycles_metric_);
  obs::Increment(ios_metric_, static_cast<double>(n));
  obs::Observe(disk_slack_hist_, (config_.t_disk - busy) / kMillisecond);
  obs::EndDiskCycle(config_.auditor, t0, busy);
  obs::SloRecord(slo_slack_, t0 + busy, overrun ? 0 : 1, overrun ? 1 : 0);
  ObserveUnderflows(t0 + busy);
  if (trace_ != nullptr && busy > 0) {
    disk_lane_.Push(t0 + busy, {DiskCompletion::kCycleEnd, 0, 0, busy});
  }

  const Seconds next = t0 + std::max(config_.t_disk, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next, [this, deadline]() { RunDiskCycle(deadline); });
  }
}

void MemsPipelineServer::RunMemsCycle(std::size_t dev, Seconds deadline) {
  PROF_SCOPE("server.pipeline.mems_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  device::MemsDevice& device = bank_[dev];
  if (trace_ != nullptr) {
    char label[40];
    std::snprintf(label, sizeof(label), "mems%zu cycle", dev);
    trace_->Append(t0, sim::TraceKind::kCycleStart, bank_names_[dev], -1, 0,
                   label);
  }

  struct Op {
    std::size_t stream;
    Bytes bytes;
    Bytes offset;  ///< device-local
    bool is_write;
  };

  // Drain the disk writes that arrived before this cycle, capped at the
  // steady-state share per cycle (M/k writes, Eq. 8) plus one: without
  // the cap the first MEMS cycle after a disk cycle would absorb the
  // whole burst of N/k writes and overrun.
  std::size_t assigned = 0;
  for (std::size_t i = dev; i < streams_.size(); i += bank_.size()) {
    ++assigned;
  }
  const auto write_cap = static_cast<std::size_t>(
      std::ceil(static_cast<double>(assigned) * config_.t_mems /
                config_.t_disk)) + 1;
  arena_.Reset();
  auto* ops = arena_.Alloc<Op>(write_cap + assigned);
  std::size_t num_ops = 0;
  for (std::size_t i = 0; i < write_cap && !pending_[dev].empty(); ++i) {
    const PendingWrite w = pending_[dev].Pop();
    Bytes cursor = write_cursor_[w.stream];
    if (cursor + w.bytes > slot_size_[w.stream]) {
      cursor = 0;  // wrap within slot
    }
    ops[num_ops++] = Op{w.stream, w.bytes, slot_base_[w.stream] + cursor,
                        true};
    write_cursor_[w.stream] = cursor + w.bytes;
  }

  // One DRAM transfer per assigned stream whose data is resident
  // (snapshot semantics: bytes written this cycle are readable next
  // cycle, matching the analytical model). When a write was drained a
  // cycle late, the stream reads whatever is resident rather than
  // skipping — partial reads keep the playout fed through drain jitter.
  for (std::size_t i = dev; i < streams_.size(); i += bank_.size()) {
    const Bytes read_bytes = streams_[i].bit_rate * config_.t_mems;
    if (!first_write_done_[i]) continue;  // stream not started yet
    if (resident_[i] <= 0) {
      ++report_.starved_reads;
      obs::Increment(starved_metric_);
      read_deficit_[i] += read_bytes;
      continue;
    }
    // Catch-up: repay any shortfall from earlier partial/skipped reads.
    const Bytes wanted = read_bytes + read_deficit_[i];
    const Bytes amount = std::min(wanted, resident_[i]);
    read_deficit_[i] = std::max(0.0, wanted - amount);
    Bytes cursor = read_cursor_[i];
    if (cursor + amount > slot_size_[i]) cursor = 0;
    ops[num_ops++] = Op{i, amount, slot_base_[i] + cursor, false};
    read_cursor_[i] = cursor + amount;
    resident_[i] -= amount;  // claimed by this cycle's schedule
  }

  Seconds busy = 0;
  for (std::size_t oi = 0; oi < num_ops; ++oi) {
    const Op& op = ops[oi];
    auto st = device.Service(
        device::IoSpan{static_cast<std::int64_t>(op.offset), op.bytes},
        nullptr);
    if (!st.ok()) continue;  // unreachable: slots sized in Create
    busy += st.value();
    ++report_.ios_completed;
    obs::Increment(ios_metric_);
    mems_lanes_[dev].Push(
        t0 + busy, {op.is_write ? MemsCompletion::kWrite : MemsCompletion::kRead,
                    dev, op.stream, op.bytes, st.value(),
                    t0 + config_.t_mems});
  }

  device_busy_[dev] += busy;
  report_.mems_busy += busy;
  const bool overrun = busy > config_.t_mems * (1.0 + 1e-9);
  if (overrun) ++report_.mems_overruns;
  ++report_.mems_cycles;
  obs::Increment(mems_cycles_metric_);
  obs::Observe(mems_slack_hist_, (config_.t_mems - busy) / kMillisecond);
  obs::EndMemsCycle(config_.auditor, static_cast<std::int64_t>(dev), t0,
                    busy);
  obs::SloRecord(slo_slack_, t0 + busy, overrun ? 0 : 1, overrun ? 1 : 0);
  if (trace_ != nullptr && busy > 0) {
    mems_lanes_[dev].Push(t0 + busy,
                          {MemsCompletion::kCycleEnd, dev, 0, 0, busy, 0});
  }

  const Seconds next = t0 + std::max(config_.t_mems, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next,
                    [this, dev, deadline]() { RunMemsCycle(dev, deadline); });
  }
}

void MemsPipelineServer::RunStripedMemsCycle(Seconds deadline) {
  PROF_SCOPE("server.pipeline.striped_mems_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  const auto k = static_cast<double>(bank_.size());
  if (trace_ != nullptr) {
    trace_->Append(t0, sim::TraceKind::kCycleStart, kStripedActor, -1, 0,
                   "striped cycle");
  }

  struct Op {
    std::size_t stream;
    Bytes bytes;          ///< full stream bytes (each device moves /k)
    Bytes device_offset;  ///< local offset, identical on every device
    bool is_write;
  };

  // Drain pending writes (all routed to queue 0), burst-capped as in the
  // round-robin cycle.
  // +2 slack: the disk delivers its N writes as a burst inside ~70% of
  // the disk cycle, so the drain rate must run slightly ahead of the
  // long-run average or late drains starve the tail streams' reads.
  const auto write_cap = static_cast<std::size_t>(
      std::ceil(static_cast<double>(streams_.size()) * config_.t_mems /
                config_.t_disk)) + 2;
  arena_.Reset();
  auto* ops = arena_.Alloc<Op>(write_cap + streams_.size());
  std::size_t num_ops = 0;
  for (std::size_t i = 0; i < write_cap && !pending_[0].empty(); ++i) {
    const PendingWrite w = pending_[0].Pop();
    const Bytes local = w.bytes / k;
    Bytes cursor = write_cursor_[w.stream];
    if (cursor + local > slot_size_[w.stream]) cursor = 0;
    ops[num_ops++] = Op{w.stream, w.bytes, slot_base_[w.stream] + cursor,
                        true};
    write_cursor_[w.stream] = cursor + local;
  }

  // One DRAM transfer per stream whose data is resident (partial when a
  // write was drained a cycle late, as in the round-robin cycle).
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Bytes read_bytes = streams_[i].bit_rate * config_.t_mems;
    if (!first_write_done_[i]) continue;
    if (resident_[i] <= 0) {
      ++report_.starved_reads;
      obs::Increment(starved_metric_);
      read_deficit_[i] += read_bytes;
      continue;
    }
    const Bytes wanted = read_bytes + read_deficit_[i];
    const Bytes amount = std::min(wanted, resident_[i]);
    read_deficit_[i] = std::max(0.0, wanted - amount);
    const Bytes local = amount / k;
    Bytes cursor = read_cursor_[i];
    if (cursor + local > slot_size_[i]) cursor = 0;
    ops[num_ops++] = Op{i, amount, slot_base_[i] + cursor, false};
    read_cursor_[i] = cursor + local;
    resident_[i] -= amount;
  }

  // Lock-step service: every device transfers its 1/k share at the same
  // local offset; the elapsed time is the slowest (= common) device.
  Seconds busy = 0;
  for (std::size_t oi = 0; oi < num_ops; ++oi) {
    const Op& op = ops[oi];
    Seconds op_time = 0;
    for (auto& dev : bank_) {
      auto t = dev.Service(
          device::IoSpan{static_cast<std::int64_t>(op.device_offset),
                         op.bytes / k},
          nullptr);
      if (!t.ok()) continue;  // unreachable: slots sized in Create
      op_time = std::max(op_time, t.value());
    }
    busy += op_time;
    ++report_.ios_completed;
    obs::Increment(ios_metric_);
    mems_lanes_[0].Push(
        t0 + busy, {op.is_write ? MemsCompletion::kWrite : MemsCompletion::kRead,
                    0, op.stream, op.bytes, op_time, t0 + config_.t_mems});
  }

  for (auto& b : device_busy_) b += busy;  // all devices move together
  report_.mems_busy += busy * k;
  const bool overrun = busy > config_.t_mems * (1.0 + 1e-9);
  if (overrun) ++report_.mems_overruns;
  ++report_.mems_cycles;
  obs::Increment(mems_cycles_metric_);
  obs::Observe(mems_slack_hist_, (config_.t_mems - busy) / kMillisecond);
  obs::EndMemsCycle(config_.auditor, -1, t0, busy);
  obs::SloRecord(slo_slack_, t0 + busy, overrun ? 0 : 1, overrun ? 1 : 0);
  if (trace_ != nullptr && busy > 0) {
    mems_lanes_[0].Push(t0 + busy,
                        {MemsCompletion::kCycleEnd, 0, 0, 0, busy, 0});
  }

  const Seconds next = t0 + std::max(config_.t_mems, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next,
                    [this, deadline]() { RunStripedMemsCycle(deadline); });
  }
}

Status MemsPipelineServer::Run(Seconds duration) {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  ran_ = true;
  disk_lane_.Bind(&sim_,
                  [this](const DiskCompletion& c) { ApplyDiskCompletion(c); });
  mems_lanes_.resize(
      config_.placement == model::BufferPlacement::kStripedIos ? 1
                                                               : bank_.size());
  for (auto& lane : mems_lanes_) {
    lane.Bind(&sim_,
              [this](const MemsCompletion& c) { ApplyMemsCompletion(c); });
  }
  starts_.Bind(&sim_, [this](const PlaybackStart& s) {
    if (!play_.playing(s.session)) play_.StartPlayback(s.session, s.start);
  });

  MEMSTREAM_RETURN_IF_ERROR(
      sim_.Schedule(0, [this, duration]() { RunDiskCycle(duration); }));
  // MEMS cycles start after the first disk cycle has delivered data.
  if (config_.placement == model::BufferPlacement::kStripedIos) {
    MEMSTREAM_RETURN_IF_ERROR(sim_.ScheduleAt(
        config_.t_disk,
        [this, duration]() { RunStripedMemsCycle(duration); }));
  } else {
    for (std::size_t d = 0; d < bank_.size(); ++d) {
      MEMSTREAM_RETURN_IF_ERROR(sim_.ScheduleAt(
          config_.t_disk,
          [this, d, duration]() { RunMemsCycle(d, duration); }));
    }
  }
  if (config_.faults != nullptr) {
    // Device faults act directly on the bank: tip loss slows the device,
    // fail makes Service() return Unavailable until the paired repair.
    MEMSTREAM_RETURN_IF_ERROR(config_.faults->ScheduleIn(
        sim_, [this](const fault::FaultEvent& e) {
          if (e.device < 0 ||
              static_cast<std::size_t>(e.device) >= bank_.size()) {
            return;
          }
          auto& dev = bank_[static_cast<std::size_t>(e.device)];
          switch (e.kind) {
            case fault::FaultKind::kMemsTipLoss:
              dev.ApplyTipLoss(e.magnitude);
              break;
            case fault::FaultKind::kMemsDeviceFail:
              dev.SetFailed(true);
              break;
            case fault::FaultKind::kMemsDeviceRepair:
              dev.SetFailed(false);
              break;
            default:
              break;
          }
        }));
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
  obs::WarnDroppedTelemetry(trace_, "mems pipeline server");
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
    metrics->gauge("server.pipeline.underflow_events")
        ->Set(static_cast<double>(report_.qos.underflow_events));
    metrics->gauge("server.pipeline.underflow_time_s")
        ->Set(report_.qos.underflow_time);
    metrics->gauge("server.pipeline.disk.overruns")
        ->Set(static_cast<double>(report_.disk_overruns));
    metrics->gauge("server.pipeline.mems.overruns")
        ->Set(static_cast<double>(report_.mems_overruns));
    metrics->gauge("server.pipeline.disk.utilization")
        ->Set(report_.disk_utilization);
    metrics->gauge("server.pipeline.mems.utilization")
        ->Set(report_.mems_utilization);
    metrics->gauge("server.pipeline.peak_dram_bytes")
        ->Set(report_.peak_dram_demand);
    metrics->gauge("server.pipeline.peak_mems_bytes")
        ->Set(report_.peak_mems_occupancy);
    metrics->gauge("prof.server.pipeline.arena_high_water_bytes")
        ->Set(static_cast<double>(arena_.high_water()));
    obs::ExportDeviceStats(metrics, *disk_, duration);
    for (const auto& dev : bank_) {
      obs::ExportDeviceStats(metrics, dev, duration);
    }
    obs::ExportSimulatorStats(metrics, sim_);
  }
  return Status::OK();
}

void MemsPipelineServer::ApplyDiskCompletion(const DiskCompletion& c) {
  const Seconds done = sim_.Now();
  if (c.kind == DiskCompletion::kCycleEnd) {
    trace_->Append(done, sim::TraceKind::kCycleEnd, disk_name_, -1, 0, "",
                   c.service);
    return;
  }
  pending_[device_[c.stream]].Push({c.stream, c.bytes});
  if (trace_ != nullptr) {
    trace_->Append(done, sim::TraceKind::kIoCompleted, disk_name_,
                   play_.id(c.stream), c.bytes, "-> mems pending", c.service);
  }
}

void MemsPipelineServer::ApplyMemsCompletion(const MemsCompletion& c) {
  const Seconds done = sim_.Now();
  const bool striped =
      config_.placement == model::BufferPlacement::kStripedIos;
  const std::size_t dev = c.dev;
  const std::string_view actor =
      striped ? kStripedActor : std::string_view(bank_names_[dev]);
  if (c.kind == MemsCompletion::kCycleEnd) {
    trace_->Append(done, sim::TraceKind::kCycleEnd, actor, -1, 0, "",
                   c.service);
    return;
  }
  const std::size_t stream = c.stream;
  if (c.kind == MemsCompletion::kWrite) {
    resident_[stream] += c.bytes;
    first_write_done_[stream] = 1;
    occupancy_[dev] += c.bytes;
    report_.peak_mems_occupancy =
        std::max(report_.peak_mems_occupancy, occupancy_[dev]);
    obs::Update(mems_occupancy_[dev], done, occupancy_[dev]);
    obs::Record(mems_series_[dev], done, occupancy_[dev]);
    // The striped lock-step write is not traced per device.
    if (trace_ != nullptr && !striped) {
      trace_->Append(done, sim::TraceKind::kIoCompleted, actor,
                     play_.id(stream), c.bytes, "disk->MEMS write",
                     c.service);
      if (occupancy_[dev] > bank_[dev].Capacity()) {
        trace_->Append(done, sim::TraceKind::kOverflow, actor,
                       play_.id(stream), occupancy_[dev],
                       "mems occupancy over capacity");
      }
    }
    return;
  }
  occupancy_[dev] = std::max(0.0, occupancy_[dev] - c.bytes);
  obs::Update(mems_occupancy_[dev], done, occupancy_[dev]);
  obs::Record(mems_series_[dev], done, occupancy_[dev]);
  play_.Deposit(stream, done, c.bytes);
  const Bytes level = play_.LevelAt(stream, done);
  obs::Update(dram_occupancy_[stream], done, level);
  obs::Record(dram_series_[stream], done, level);
  obs::RecordDramLevel(config_.auditor, stream, done, level);
  obs::JournalIo(journal_, jslot_[stream], done, c.bytes, level);
  if (trace_ != nullptr) {
    if (!striped) {
      trace_->Append(done, sim::TraceKind::kIoCompleted, actor,
                     play_.id(stream), c.bytes, "MEMS->DRAM read",
                     c.service);
    }
    trace_->Append(done, sim::TraceKind::kBufferLevel, "stream",
                   play_.id(stream), level, "");
  }
  if (!play_.playing(stream)) {
    const Seconds start = std::max(done, c.boundary);
    starts_.Push(start, {stream, start});
  }
}

void MemsPipelineServer::ObserveUnderflows(Seconds now) {
  if (journal_ == nullptr && slo_underflow_ == nullptr) return;
  // The playback batch counts underflow events cumulatively; the delta
  // against uf_seen_ attributes new events to this disk cycle without
  // touching the deposit path.
  std::int64_t bad_streams = 0;
  for (std::size_t i = 0; i < play_.size(); ++i) {
    const std::int64_t delta = play_.underflow_events(i) - uf_seen_[i];
    if (delta > 0) {
      uf_seen_[i] += delta;
      ++bad_streams;
      obs::JournalUnderflows(journal_, jslot_[i], now, delta);
    }
  }
  if (slo_underflow_ != nullptr && !play_.empty()) {
    const auto n = static_cast<std::int64_t>(play_.size());
    slo_underflow_->Record(now, n - bad_streams, bad_streams);
  }
}

}  // namespace memstream::server
