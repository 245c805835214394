#include "farm/router.h"

#include <algorithm>
#include <array>
#include <memory>
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
  router.up_.assign(static_cast<std::size_t>(shards), 1);
  return router;
}

Status AdmissionRouter::ShareSizingTable(BytesPerSecond rate,
                                         std::int64_t max_count) {
  auto table = controllers_.front().BuildSizingTable(rate, max_count);
  MEMSTREAM_RETURN_IF_ERROR(table.status());
  table_ = std::make_unique<const server::SizingTable>(
      std::move(table).value());
  for (server::AdmissionController& c : controllers_) {
    c.UseSizingTable(table_.get());
  }
  return Status::OK();
}

RouteDecision AdmissionRouter::Route(std::int64_t title,
                                     BytesPerSecond bit_rate,
                                     RouteTally* tally) {
  RouteDecision decision;
  server::AdmissionVerdict verdict;
  decision.shard = RouteSet(placement_->Lookup(title), bit_rate, tally,
                            &verdict, &decision.reason);
  if (decision.shard >= 0) {
    decision.admitted = true;
    decision.streams_on_shard = verdict.streams_after;
    decision.dram_required = verdict.dram_required;
  }
  return decision;
}

std::int32_t AdmissionRouter::RouteSet(ShardSet candidates,
                                       BytesPerSecond bit_rate,
                                       RouteTally* tally,
                                       server::AdmissionVerdict* verdict,
                                       std::string* reason) {
  ++tally->attempts;
  // Live candidates keyed least-loaded first, ties to the lowest shard
  // id: load in the high half (a shard never holds 2^32 streams), id in
  // the low half.
  std::array<std::uint64_t, kMaxReplicas> key;
  std::int32_t live = 0;
  for (std::int32_t i = 0; i < candidates.count; ++i) {
    const std::int32_t s = candidates.shard[static_cast<std::size_t>(i)];
    if (!shard_up(s)) continue;
    key[static_cast<std::size_t>(live++)] =
        static_cast<std::uint64_t>(admitted_on(s)) << 32 |
        static_cast<std::uint32_t>(s);
  }
  if (live == 0 && reason != nullptr) *reason = "no live replica";
  // Offer in key order, picking each next candidate by a scan rather
  // than sorting up front: the first pick nearly always admits. Only
  // the last candidate's rejection text can reach the caller, so only
  // it builds one.
  for (std::int32_t tried = 0; tried < live; ++tried) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < static_cast<std::size_t>(live); ++i) {
      if (key[i] < key[best]) best = i;
    }
    const auto s = static_cast<std::int32_t>(key[best] & 0xFFFFFFFFu);
    key[best] = ~std::uint64_t{0};
    *verdict = controllers_[static_cast<std::size_t>(s)].Admit(
        bit_rate, tried + 1 == live ? reason : nullptr);
    if (verdict->admitted) {
      ++tally->admitted;
      return s;
    }
  }
  ++tally->rejected;
  return -1;
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
  up_[static_cast<std::size_t>(shard)] = up ? 1 : 0;
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
  groups.first_copy.reserve(groups.of_title.size() + 1);
  groups.copies.reserve(static_cast<std::size_t>(placement.total_copies()));
  groups.first_copy.push_back(0);
  for (std::int64_t t = 0; t < placement.num_titles(); ++t) {
    const ShardSet set = placement.Lookup(t);
    groups.copies.insert(groups.copies.end(), set.shard.begin(),
                         set.shard.begin() + set.count);
    groups.first_copy.push_back(
        static_cast<std::int32_t>(groups.copies.size()));
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
