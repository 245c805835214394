#include "fault/degradation.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "model/incremental.h"
#include "model/timecycle.h"

namespace memstream::fault {

Result<DegradationManager> DegradationManager::Create(
    const DegradationConfig& config) {
  if (config.k < 1) {
    return Status::InvalidArgument("degradation needs k >= 1");
  }
  if (config.bit_rate <= 0) {
    return Status::InvalidArgument("bit_rate must be > 0");
  }
  if (config.n_cache < 0 || config.n_disk < 0) {
    return Status::InvalidArgument("stream counts must be >= 0");
  }
  if (config.mems.rate <= 0) {
    return Status::InvalidArgument("mems profile rate must be > 0");
  }
  if (config.refill_delay < 0) {
    return Status::InvalidArgument("refill_delay must be >= 0");
  }
  return DegradationManager(config);
}

std::int64_t DegradationManager::MaxSustainableFull(
    std::int64_t alive) const {
  if (alive <= 0) return 0;
  std::int64_t n = model::MaxCacheStreamsBandwidthBound(
      config_.bit_rate, alive, config_.mems.rate, config_.policy);
  n = std::min(n, config_.n_cache);
  // The bandwidth bound is necessary, not sufficient: near it the
  // Theorem 3/4 buffer diverges. Walk down to the largest n whose sizing
  // is finite and positive (probe kernel: the infeasible steps of this
  // walk would otherwise each allocate an Infeasible message).
  while (n > 0) {
    const double buf = model::ProbeCachePerStream(
        n, config_.bit_rate, alive, config_.mems, config_.policy);
    if (!std::isnan(buf)) break;
    --n;
  }
  return n;
}

std::int64_t DegradationManager::MaxSustainable(std::int64_t alive) const {
  return sustain_memo_.Lookup(
      {alive}, [&] { return MaxSustainableFull(alive); },
      [](std::int64_t a, std::int64_t b) { return a == b; });
}

bool DegradationManager::DiskCanAbsorb(std::int64_t extra) const {
  if (extra < 0) return false;
  if (config_.disk.rate <= 0) return false;
  return model::PerStreamBufferSize(config_.n_disk + extra,
                                    config_.bit_rate, config_.disk)
      .ok();
}

CacheReplan DegradationManager::ReplanFull(std::int64_t alive) const {
  CacheReplan plan;
  std::ostringstream action;

  const bool striped_dead =
      config_.policy == model::CachePolicy::kStriped && alive < config_.k;
  plan.cache_down = striped_dead || alive <= 0;

  if (!plan.cache_down) {
    const std::int64_t keep = MaxSustainableFull(alive);
    auto buf = model::CachePerStreamBuffer(keep, config_.bit_rate, alive,
                                           config_.mems, config_.policy);
    if (keep > 0 && buf.ok()) {
      plan.feasible = true;
      plan.retained = keep;
      plan.shed = config_.n_cache - keep;
      plan.per_stream_buffer = buf.value();
      plan.mems_cycle = buf.value() / config_.bit_rate;  // T = S / B̄
      if (plan.shed == 0) {
        action << "reshape k'=" << alive << " T_mems=" << plan.mems_cycle
               << "s";
      } else {
        action << "shed " << plan.shed << " keep " << keep << " (k'="
               << alive << ")";
      }
      plan.action = action.str();
      return plan;
    }
    // Nothing sustainable on the degraded bank: fall through to the
    // cache-down handling (disk fallback / full shed).
    plan.cache_down = true;
  }

  // Cache path unusable. Move what the disk can absorb, shed the rest.
  std::int64_t to_disk = 0;
  if (config_.disk.rate > 0) {
    // Largest extra with a feasible Theorem 1 sizing (probe kernel: the
    // bisection's infeasible probes are free of Status allocation).
    to_disk = std::max<std::int64_t>(
        model::LargestTrueInline(
            [&](std::int64_t extra) {
              return !std::isnan(model::ProbeTheorem1PerStream(
                  config_.n_disk + extra, config_.bit_rate,
                  config_.disk.rate, config_.disk.latency));
            },
            1, config_.n_cache),
        0);
  }
  plan.to_disk = to_disk;
  plan.shed = config_.n_cache - to_disk;
  plan.retained = 0;
  plan.feasible = to_disk > 0 || config_.n_cache == 0;
  if (to_disk > 0) {
    auto disk_buf = model::PerStreamBufferSize(config_.n_disk + to_disk,
                                               config_.bit_rate, config_.disk);
    if (disk_buf.ok()) {
      plan.disk_cycle = disk_buf.value() / config_.bit_rate;  // T = S / B̄
    }
  }
  action << "cache down: " << to_disk << " to disk, shed " << plan.shed;
  plan.action = action.str();
  return plan;
}

const CacheReplan& DegradationManager::Replan(std::int64_t alive) const {
  return replan_memo_.Lookup(
      {alive}, [&] { return ReplanFull(alive); },
      [](const CacheReplan& a, const CacheReplan& b) { return a == b; });
}

}  // namespace memstream::fault
