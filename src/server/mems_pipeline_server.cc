#include "server/mems_pipeline_server.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "common/profiler.h"

namespace memstream::server {

Result<MemsPipelineServer> MemsPipelineServer::Create(
    device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
    std::vector<StreamSpec> streams, const MemsPipelineConfig& config) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (bank.empty()) return Status::InvalidArgument("bank must not be empty");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.t_disk <= 0 || config.t_mems <= 0) {
    return Status::InvalidArgument("cycle lengths must be > 0");
  }
  if (config.t_mems > config.t_disk) {
    return Status::InvalidArgument("t_mems must not exceed t_disk (Eq. 8)");
  }
  MEMSTREAM_RETURN_IF_ERROR(CheckDiskStreams(*disk, streams, config.t_disk));
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
  MEMSTREAM_RETURN_IF_ERROR(config.sinks.CheckAuditor(streams.size()));
  return MemsPipelineServer(disk, std::move(bank), std::move(streams),
                            config);
}

MemsPipelineServer::MemsPipelineServer(device::DiskDrive* disk,
                                       std::vector<device::MemsDevice> bank,
                                       std::vector<StreamSpec> streams,
                                       const MemsPipelineConfig& config)
    : ServerCore("pipeline", "mems pipeline server"),
      streams_(std::move(streams)),
      config_(config) {
  ResetCore(disk, std::move(bank), config_.sinks, streams_.size(),
            config_.seed);
  const std::size_t k = bank_.size();
  pending_.resize(k);
  occupancy_.assign(k, 0);
  play_cursor_.assign(streams_.size(), 0);
  device_.assign(streams_.size(), 0);
  slot_base_.assign(streams_.size(), 0);
  slot_size_.assign(streams_.size(), 0);
  write_cursor_.assign(streams_.size(), 0);
  read_cursor_.assign(streams_.size(), 0);
  resident_.assign(streams_.size(), 0);
  read_deficit_.assign(streams_.size(), 0);
  first_write_done_.assign(streams_.size(), 0);
  play_.Resize(streams_.size());

  const bool striped =
      config_.placement == model::BufferPlacement::kStripedIos;
  std::vector<std::size_t> assigned(k, striped ? streams_.size() : 0);
  if (!striped) {
    for (std::size_t i = 0; i < streams_.size(); ++i) ++assigned[i % k];
  }
  std::vector<std::size_t> slot_index(k, 0);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& s = streams_[i];
    play_.Set(i, s.id, s.bit_rate);
    // Theorem 2: buffering through MEMS shrinks the per-stream DRAM
    // envelope from 2*B*T_disk to 2*B*T_mems.
    telemetry_.Set(i, s.id, s.bit_rate, 2.0 * s.bit_rate * config_.t_mems,
                   static_cast<std::ptrdiff_t>(i));
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
  // MEMS-side reads are legally partial, so its cycles feed the slack
  // SLO only; the underflow scan runs once per disk cycle.
  obs::MetricsRegistry* metrics = sinks_.metrics;
  disk_side_.Init(CycleSide::Kind::kDisk, "server.pipeline.disk",
                  config_.t_disk, metrics);
  mems_side_.Init(CycleSide::Kind::kMems, "server.pipeline.mems",
                  config_.t_mems, metrics, k, /*scan_underflows=*/false);
  mems_occupancy_.assign(k, nullptr);
  if (metrics != nullptr) {
    for (std::size_t d = 0; d < k; ++d) {
      mems_occupancy_[d] = metrics->time_weighted(
          "device." + bank_names_[d] + ".occupancy_bytes");
    }
  }
  mems_series_.assign(k, nullptr);
  if (obs::TimelineRecorder* tl = sinks_.timelines; tl != nullptr) {
    for (std::size_t d = 0; d < k; ++d) {
      mems_series_[d] = tl->AddSeries(
          "device." + bank_names_[d] + ".occupancy_bytes", "bytes");
    }
  }
}

void MemsPipelineServer::RunDiskCycle(Seconds deadline) {
  PROF_SCOPE("server.pipeline.disk_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  // The arena is shared with the MEMS cycles: each cycle body runs to
  // completion before the next event fires, so the reset is safe.
  DiskBatch batch = NewDiskBatch(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& s = streams_[i];
    batch.Add(i, s.disk_offset, s.extent, s.bit_rate * config_.t_disk,
              &play_cursor_[i]);
  }
  TraceCycleStart(disk_side_, t0, disk_name_);
  // Each write joins its MEMS device's pending queue at its done time:
  // the MEMS cycles must see exactly the writes whose completion
  // precedes their cycle start, which the lane's (time, seq) order
  // guarantees.
  const Seconds busy = ServiceDiskBatch(
      batch, t0, config_.deterministic,
      [&](std::size_t i, Bytes bytes, Seconds done, Seconds service) {
        disk_lane_.Push(done, {DiskCompletion::kIo, i, bytes, service});
      });

  const Seconds next = CloseCycle(disk_side_, t0, busy, config_.t_disk,
                                  disk_lane_, {DiskCompletion::kCycleEnd});
  if (next < deadline) {
    sim_.ScheduleAt(next, [this, deadline]() { RunDiskCycle(deadline); });
  }
}

void MemsPipelineServer::RunMemsCycle(std::size_t dev, Seconds deadline) {
  PROF_SCOPE("server.pipeline.mems_cycle");
  MemsCycle(static_cast<std::int64_t>(dev), deadline);
}

void MemsPipelineServer::RunStripedMemsCycle(Seconds deadline) {
  PROF_SCOPE("server.pipeline.striped_mems_cycle");
  MemsCycle(-1, deadline);
}

void MemsPipelineServer::MemsCycle(std::int64_t device, Seconds deadline) {
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  // Striped placement routes every stream through queue and lane 0, and
  // each device moves a 1/k share of every op at the same local offset.
  const bool striped = device < 0;
  const std::size_t dev = striped ? 0 : static_cast<std::size_t>(device);
  const std::size_t step = striped ? 1 : bank_.size();
  const auto k = static_cast<double>(bank_.size());
  const auto local = [&](Bytes bytes) { return striped ? bytes / k : bytes; };
  TraceCycleStart(mems_side_, t0,
                  striped ? kStripedActor : std::string_view(bank_names_[dev]),
                  device);

  struct Op {
    std::size_t stream;
    Bytes bytes;   ///< full stream bytes (striped: each device moves /k)
    Bytes offset;  ///< device-local (striped: the same on every device)
    bool is_write;
  };

  // Drain the disk writes that arrived before this cycle, capped at the
  // steady-state share per cycle (M/k writes, Eq. 8) plus one: without
  // the cap the first MEMS cycle after a disk cycle would absorb the
  // whole burst of N/k writes and overrun. Striped takes +2: the disk
  // delivers its N writes as a burst inside ~70% of the disk cycle, so
  // the drain rate must run slightly ahead of the long-run average or
  // late drains starve the tail streams' reads.
  std::size_t assigned = 0;
  for (std::size_t i = dev; i < streams_.size(); i += step) ++assigned;
  const auto write_cap = static_cast<std::size_t>(
      std::ceil(static_cast<double>(assigned) * config_.t_mems /
                config_.t_disk)) + (striped ? 2 : 1);
  arena_.Reset();
  auto* ops = arena_.Alloc<Op>(write_cap + assigned);
  std::size_t num_ops = 0;
  for (std::size_t i = 0; i < write_cap && !pending_[dev].empty(); ++i) {
    const PendingWrite w = pending_[dev].Pop();
    const Bytes share = local(w.bytes);
    Bytes cursor = write_cursor_[w.stream];
    if (cursor + share > slot_size_[w.stream]) cursor = 0;  // wrap in slot
    ops[num_ops++] = Op{w.stream, w.bytes, slot_base_[w.stream] + cursor,
                        true};
    write_cursor_[w.stream] = cursor + share;
  }

  // One DRAM transfer per assigned stream whose data is resident
  // (snapshot semantics: bytes written this cycle are readable next
  // cycle, matching the analytical model). When a write was drained a
  // cycle late, the stream reads whatever is resident rather than
  // skipping — partial reads keep the playout fed through drain jitter.
  for (std::size_t i = dev; i < streams_.size(); i += step) {
    const Bytes read_bytes = streams_[i].bit_rate * config_.t_mems;
    if (!first_write_done_[i]) continue;  // stream not started yet
    if (resident_[i] <= 0) {
      ++report_.starved_reads;
      read_deficit_[i] += read_bytes;
      continue;
    }
    // Catch-up: repay any shortfall from earlier partial/skipped reads.
    const Bytes wanted = read_bytes + read_deficit_[i];
    const Bytes amount = std::min(wanted, resident_[i]);
    read_deficit_[i] = std::max(0.0, wanted - amount);
    const Bytes share = local(amount);
    Bytes cursor = read_cursor_[i];
    if (cursor + share > slot_size_[i]) cursor = 0;
    ops[num_ops++] = Op{i, amount, slot_base_[i] + cursor, false};
    read_cursor_[i] = cursor + share;
    resident_[i] -= amount;  // claimed by this cycle's schedule
  }

  Seconds busy = 0;
  for (std::size_t oi = 0; oi < num_ops; ++oi) {
    const Op& op = ops[oi];
    const device::IoSpan span{static_cast<std::int64_t>(op.offset),
                              local(op.bytes)};
    Seconds op_time = 0;
    if (striped) {
      ServiceLockStep(span, &op_time);
    } else {
      auto st = bank_[dev].Service(span, nullptr);
      if (!st.ok()) continue;  // a failed device moves nothing
      op_time = st.value();
    }
    busy += op_time;
    ++report_.ios_completed;
    mems_lanes_[dev].Push(
        t0 + busy, {op.is_write ? MemsCompletion::kWrite : MemsCompletion::kRead,
                    dev, op.stream, op.bytes, op_time, t0 + config_.t_mems});
  }

  const Seconds next =
      CloseCycle(mems_side_, t0, busy, config_.t_mems, mems_lanes_[dev],
                 {MemsCompletion::kCycleEnd, dev}, device);
  if (next >= deadline) return;
  if (striped) {
    sim_.ScheduleAt(next,
                    [this, deadline]() { RunStripedMemsCycle(deadline); });
  } else {
    sim_.ScheduleAt(next,
                    [this, dev, deadline]() { RunMemsCycle(dev, deadline); });
  }
}

Status MemsPipelineServer::StartRun(Seconds duration) {
  disk_lane_.Bind(&sim_,
                  [this](const DiskCompletion& c) { ApplyDiskCompletion(c); });
  mems_lanes_.resize(
      config_.placement == model::BufferPlacement::kStripedIos ? 1
                                                               : bank_.size());
  for (auto& lane : mems_lanes_) {
    lane.Bind(&sim_,
              [this](const MemsCompletion& c) { ApplyMemsCompletion(c); });
  }

  MEMSTREAM_RETURN_IF_ERROR(
      sim_.Schedule(0, [this, duration]() { RunDiskCycle(duration); }));
  // MEMS cycles start after the first disk cycle has delivered data.
  if (config_.placement == model::BufferPlacement::kStripedIos) {
    return sim_.ScheduleAt(
        config_.t_disk, [this, duration]() { RunStripedMemsCycle(duration); });
  }
  for (std::size_t d = 0; d < bank_.size(); ++d) {
    MEMSTREAM_RETURN_IF_ERROR(sim_.ScheduleAt(
        config_.t_disk, [this, d, duration]() { RunMemsCycle(d, duration); }));
  }
  return Status::OK();
}

void MemsPipelineServer::ApplyFaultEvent(const fault::FaultEvent& e) {
  if (e.device < 0 || static_cast<std::size_t>(e.device) >= bank_.size()) {
    return;
  }
  bank_[static_cast<std::size_t>(e.device)].SetFailed(
      e.kind == fault::FaultKind::kMemsDeviceFail);
}

void MemsPipelineServer::CloseRun() {
  if (auto* metrics = sinks_.metrics; metrics != nullptr) {
    metrics->counter("server.pipeline.starved_reads")
        ->Increment(static_cast<double>(report_.starved_reads));
    metrics->gauge("server.pipeline.peak_mems_bytes")
        ->Set(report_.peak_mems_occupancy);
  }
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
  telemetry_.Deposit(stream, done, c.bytes, level);
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

}  // namespace memstream::server
