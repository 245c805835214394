#include "farm/router.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace memstream::farm {

Result<AdmissionRouter> AdmissionRouter::Create(const Placement* placement,
                                               const RouterConfig& config) {
  if (placement == nullptr) {
    return Status::InvalidArgument("placement is required");
  }
  if (!config.node_latency) {
    return Status::InvalidArgument("node_latency is required");
  }
  AdmissionRouter router(placement);
  const std::int64_t shards = placement->num_shards();
  router.controllers_.reserve(static_cast<std::size_t>(shards));
  for (std::int64_t s = 0; s < shards; ++s) {
    server::AdmissionConfig ac;
    ac.dram_budget = config.dram_budget_per_shard;
    ac.disk_rate = config.node_rate;
    ac.disk_latency = config.node_latency;
    auto controller = server::AdmissionController::Create(ac);
    MEMSTREAM_RETURN_IF_ERROR(controller.status());
    router.controllers_.push_back(std::move(controller).value());
  }
  router.up_.assign(static_cast<std::size_t>(shards), true);
  return router;
}

RouteDecision AdmissionRouter::Route(std::int64_t title,
                                     BytesPerSecond bit_rate,
                                     RouteTally* tally) {
  ++tally->attempts;
  RouteDecision decision;
  decision.reason = "no live replica";

  ShardSet candidates = placement_->Lookup(title);
  // Least-loaded first, ties to the lowest shard id (insertion sort on
  // the fixed-size set keeps this allocation-free).
  for (std::int32_t i = 1; i < candidates.count; ++i) {
    const std::int32_t s = candidates.shard[static_cast<std::size_t>(i)];
    std::int32_t j = i - 1;
    auto heavier = [this](std::int32_t a, std::int32_t b) {
      const std::int64_t la = admitted_on(a), lb = admitted_on(b);
      return la > lb || (la == lb && a > b);
    };
    while (j >= 0 &&
           heavier(candidates.shard[static_cast<std::size_t>(j)], s)) {
      candidates.shard[static_cast<std::size_t>(j + 1)] =
          candidates.shard[static_cast<std::size_t>(j)];
      --j;
    }
    candidates.shard[static_cast<std::size_t>(j + 1)] = s;
  }

  for (std::int32_t i = 0; i < candidates.count; ++i) {
    const std::int32_t s = candidates.shard[static_cast<std::size_t>(i)];
    if (!up_[static_cast<std::size_t>(s)]) continue;
    server::AdmissionDecision d =
        controllers_[static_cast<std::size_t>(s)].TryAdmit(bit_rate);
    if (d.admitted) {
      ++tally->admitted;
      decision.admitted = true;
      decision.shard = s;
      decision.streams_on_shard = d.streams_after;
      decision.dram_required = d.dram_required;
      decision.reason.clear();
      return decision;
    }
    decision.reason = std::move(d.reason);
  }
  ++tally->rejected;
  return decision;
}

Status AdmissionRouter::Release(std::int32_t shard, BytesPerSecond bit_rate) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::OutOfRange("shard index out of range");
  }
  return controllers_[static_cast<std::size_t>(shard)].Release(bit_rate);
}

Status AdmissionRouter::SetShardUp(std::int32_t shard, bool up) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::OutOfRange("shard index out of range");
  }
  up_[static_cast<std::size_t>(shard)] = up;
  return Status::OK();
}

TitleGroups GroupTitles(const Placement& placement) {
  // Union-find over shards whose roots are always a group's lowest
  // shard; `of_title` first holds each title's first candidate.
  std::vector<std::int32_t> parent(
      static_cast<std::size_t>(placement.num_shards()));
  std::iota(parent.begin(), parent.end(), 0);
  auto root = [&parent](std::int32_t s) {
    while (parent[static_cast<std::size_t>(s)] != s) {
      s = parent[static_cast<std::size_t>(s)];
    }
    return s;
  };
  TitleGroups groups;
  groups.of_title.resize(static_cast<std::size_t>(placement.num_titles()));
  for (std::int64_t t = 0; t < placement.num_titles(); ++t) {
    const ShardSet set = placement.Lookup(t);
    std::int32_t low = root(set.shard[0]);
    for (std::int32_t i = 1; i < set.count; ++i) {
      std::int32_t high = root(set.shard[static_cast<std::size_t>(i)]);
      if (high < low) std::swap(low, high);
      parent[static_cast<std::size_t>(high)] = low;
    }
    groups.of_title[static_cast<std::size_t>(t)] = set.shard[0];
  }
  // Roots come first in shard order, so labels follow lowest shards.
  std::vector<std::int32_t> label(parent.size(), -1);
  for (std::size_t s = 0; s < parent.size(); ++s) {
    const auto r = static_cast<std::size_t>(root(static_cast<std::int32_t>(s)));
    if (label[r] < 0) label[r] = groups.count++;
    label[s] = label[r];
  }
  for (std::int32_t& g : groups.of_title) {
    g = label[static_cast<std::size_t>(g)];
  }
  return groups;
}

}  // namespace memstream::farm
