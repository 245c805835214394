#include "farm/shard_workspace.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "common/profiler.h"
#include "model/profiles.h"
#include "model/timecycle.h"

namespace memstream::farm {

Status ShardWorkspace::Build(std::int64_t streams, Seconds* t_cycle) {
  PROF_SCOPE("farm.shard_build");
  const ShardedFarmConfig& cfg = *config_;
  if (!disk_.has_value()) {
    auto disk = device::DiskDrive::Create(cfg.node_disk);
    MEMSTREAM_RETURN_IF_ERROR(disk.status());
    disk_.emplace(std::move(disk).value());
  } else {
    // A fresh node: head at cylinder 0, no service accounting.
    disk_->Reset();
    disk_->ResetStats();
  }
  const std::int64_t n = streams;
  auto cycle = model::IoCycleLength(n, cfg.bit_rate,
                                    model::DiskProfile(*disk_, n));
  MEMSTREAM_RETURN_IF_ERROR(cycle.status());
  *t_cycle = cycle.value();
  const Bytes io = cfg.bit_rate * *t_cycle;
  const Bytes stride = disk_->Capacity() * 0.9 / static_cast<double>(n);

  specs_.resize(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < specs_.size(); ++j) {
    server::StreamSpec& spec = specs_[j];
    spec.id = static_cast<std::int64_t>(j);
    spec.bit_rate = cfg.bit_rate;
    spec.disk_offset = stride * static_cast<double>(j);
    spec.extent = std::max(stride, 2 * io);
  }

  // Deterministic and without best-effort IOs, the server never draws
  // from its seed.
  server::DirectServerConfig dsc;
  dsc.cycle = *t_cycle;
  dsc.deterministic = true;
  if (cfg.audit) {
    if (labels_.size() < specs_.size()) {
      const std::size_t have = labels_.size();
      labels_.resize(specs_.size());
      std::iota(labels_.begin() + static_cast<std::ptrdiff_t>(have),
                labels_.end(), static_cast<std::int32_t>(have));
    }
    obs::QosAuditorConfig qac;
    qac.disk_cycle = *t_cycle;
    auditor_.Reset(qac);
    auditor_.AddStreams(std::span<const std::int32_t>(labels_).first(
                            specs_.size()),
                        cfg.bit_rate, 2 * cfg.bit_rate * *t_cycle);
    auditor_.Seal();
    dsc.sinks.auditor = &auditor_;
  }
  return server_.Reset(&*disk_, specs_, dsc);
}

std::span<const ShardEpoch> ShardWorkspace::RunEpochs(
    const ShardEpochTask& task) {
  lengths_.assign(task.shorter.begin(), task.shorter.end());
  lengths_.push_back(task.length);
  if (rows_.size() < lengths_.size()) rows_.resize(lengths_.size());
  const std::span<ShardEpoch> rows(rows_.data(), lengths_.size());
  for (ShardEpoch& row : rows) {
    // A fresh row that keeps its per-stream capacity.
    std::vector<StreamEpoch> per_stream = std::move(row.per_stream);
    per_stream.clear();
    row = ShardEpoch{};
    row.per_stream = std::move(per_stream);
  }
  if (task.streams <= 0) return rows;
  Seconds t_cycle = 0;
  Status st = Build(task.streams, &t_cycle);
  if (st.ok()) {
    PROF_SCOPE("farm.shard_run");
    st = server_.Run(lengths_, task.per_stream);
  }
  for (ShardEpoch& row : rows) {
    row.streams = task.streams;
    if (!st.ok()) row.error = st.ToString();
  }
  if (!st.ok()) return rows;

  PROF_SCOPE("farm.shard_collect");
  const Bytes io = config_->bit_rate * t_cycle;
  for (std::size_t h = 0; h < rows.size(); ++h) {
    ShardEpoch& row = rows[h];
    const server::ServerReport& rep = server_.report(h);
    row.ran = true;
    row.cycles = rep.disk.cycles;
    row.ios = rep.ios_completed;
    row.overruns = rep.disk.overruns;
    row.underflows = rep.qos.underflow_events;
    row.violations = rep.qos.violations;  // 0 unaudited
    row.peak_dram = rep.peak_dram;
    // The server always finishes its last cycle, so raw busy time can
    // spill past the epoch; clamp like disk.utilization does.
    row.busy = std::min(rep.disk.busy, lengths_[h]);
    if (!task.per_stream) continue;
    row.per_stream.reserve(specs_.size());
    for (std::size_t j = 0; j < specs_.size(); ++j) {
      const server::StreamView v = server_.session(h, j);
      StreamEpoch se;
      se.id = v.id();
      se.bytes = v.total_deposited();
      se.peak = v.peak_level();
      se.underflows = v.underflow_events();
      se.ios = io > 0 ? static_cast<std::int64_t>(std::llround(se.bytes / io))
                      : 0;
      row.per_stream.push_back(se);
    }
  }
  return rows;
}

void ShardWorkspace::Prepare(std::int64_t streams, std::size_t lengths,
                             bool per_stream) {
  if (streams <= 0) return;
  Seconds t_cycle = 0;
  // A failure here is RunEpochs()' to report.
  if (Build(streams, &t_cycle).ok()) {
    server_.ReserveHorizons(lengths, per_stream);
  }
}

ShardWorkspacePool::ShardWorkspacePool(const ShardedFarmConfig& config,
                                       int count, std::int64_t largest,
                                       std::size_t lengths, bool per_stream)
    : config_(&config) {
  for (int i = 0; i < count; ++i) {
    all_.push_back(std::make_unique<ShardWorkspace>(config));
    all_.back()->Prepare(largest, lengths, per_stream);
    free_.push_back(all_.back().get());
  }
}

ShardWorkspacePool::Lease ShardWorkspacePool::Checkout() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    all_.push_back(std::make_unique<ShardWorkspace>(*config_));
    return Lease(this, all_.back().get());
  }
  ShardWorkspace* ws = free_.back();
  free_.pop_back();
  return Lease(this, ws);
}

void ShardWorkspacePool::Return(ShardWorkspace* ws) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(ws);
}

}  // namespace memstream::farm
