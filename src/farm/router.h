// Farm-level admission router: one model-driven AdmissionController per
// shard, fronted by the catalog placement. A request for a title is
// offered to that title's replicas in least-loaded order; each candidate
// re-checks Theorem-1 headroom through its controller, so a stream is
// only ever admitted where the analytical sizing still fits the shard's
// DRAM budget and bandwidth.
//
// Every shard has the same node, so a one-rate farm shares one
// read-only server::SizingTable across all controllers
// (ShareSizingTable): a candidate holding only the table's rate is
// answered with one load per count, bit-identical to solving. Offers at
// other rates, and mixed shards, still solve. An admitting Route builds
// no reason text and touches no heap; only a rejection writes its
// reason, that of the last live candidate. Callers that route many
// offers can skip the placement lookup too: GroupTitles keeps every
// title's candidates for RouteAmong.
//
// The router also carries the farm's availability state: a shard marked
// down (fault::FaultPlan node failure) is skipped by Route until its
// repair event marks it back up. The router is not internally
// synchronized and is deliberately clock-free, so routing the same
// request sequence is deterministic at any thread count. A Route call
// reads and writes only the controllers of the title's candidate shards,
// so calls for titles in different shard groups (GroupTitles) may run
// concurrently as long as each counts into its own RouteTally and no
// shard changes state meanwhile; every other call is made from one
// thread.

#ifndef MEMSTREAM_FARM_ROUTER_H_
#define MEMSTREAM_FARM_ROUTER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "farm/placement.h"
#include "model/profiles.h"
#include "server/admission.h"

namespace memstream::farm {

/// Identical per-shard node hardware the controllers size against.
struct RouterConfig {
  Bytes dram_budget_per_shard = 4 * kGB;
  /// Aggregate media rate of one shard node (a striped array modeled as
  /// one device).
  BytesPerSecond node_rate = 300 * kMBps;
  /// L̄_disk(n) of the node, required (see model::DiskLatencyFn).
  model::LatencyFn node_latency;
};

/// Farm-level routing tallies (plain counters instead of wall-clock
/// metrics, so routing stays deterministic).
struct RouteTally {
  std::int64_t attempts = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;

  RouteTally& operator+=(const RouteTally& other) {
    attempts += other.attempts;
    admitted += other.admitted;
    rejected += other.rejected;
    return *this;
  }
};

/// Outcome of routing one request.
struct RouteDecision {
  bool admitted = false;
  std::int32_t shard = -1;        ///< admitting shard; -1 on rejection
  std::int64_t streams_on_shard = 0;  ///< shard load after admission
  Bytes dram_required = 0;        ///< shard DRAM at the new load
  std::string reason;             ///< why the last candidate rejected
};

class AdmissionRouter {
 public:
  /// `placement` is not owned and must outlive the router.
  static Result<AdmissionRouter> Create(const Placement* placement,
                                        const RouterConfig& config);

  /// Offers a stream of `bit_rate` for `title` to the title's live
  /// replicas, least-loaded first (ties to the lowest shard id).
  RouteDecision Route(std::int64_t title, BytesPerSecond bit_rate) {
    return Route(title, bit_rate, &tally_);
  }
  /// Route, counting into `tally` instead of the router's own tallies
  /// (the concurrent form; fold `tally` in with AddTally afterwards).
  RouteDecision Route(std::int64_t title, BytesPerSecond bit_rate,
                      RouteTally* tally);
  /// Route for a title whose Lookup the caller already holds
  /// (TitleGroups::candidates: at most kMaxReplicas shards, in Lookup
  /// order), reduced to its verdict: the admitting shard, or -1.
  std::int32_t RouteAmong(std::span<const std::int32_t> candidates,
                          BytesPerSecond bit_rate, RouteTally* tally) {
    ShardSet set;
    set.count = static_cast<std::int32_t>(candidates.size());
    std::copy(candidates.begin(), candidates.end(), set.shard.begin());
    server::AdmissionVerdict verdict;
    return RouteSet(set, bit_rate, tally, &verdict, nullptr);
  }
  void AddTally(const RouteTally& tally) { tally_ += tally; }

  /// Builds one SizingTable for streams of `rate`, capped at
  /// `max_count` streams per shard, and has every shard's controller
  /// answer from it (see AdmissionController::UseSizingTable). Routing
  /// decisions stay bit-identical; offers at other rates still solve.
  Status ShareSizingTable(BytesPerSecond rate, std::int64_t max_count);

  /// Releases one admitted stream of `bit_rate` from `shard`.
  Status Release(std::int32_t shard, BytesPerSecond bit_rate);

  /// Marks a shard down (skipped by Route) or back up.
  Status SetShardUp(std::int32_t shard, bool up);
  bool shard_up(std::int32_t shard) const {
    return up_[static_cast<std::size_t>(shard)] != 0;
  }

  std::int64_t num_shards() const {
    return static_cast<std::int64_t>(controllers_.size());
  }
  std::int64_t admitted_on(std::int32_t shard) const {
    return controllers_[static_cast<std::size_t>(shard)].admitted_count();
  }
  Bytes dram_on(std::int32_t shard) const {
    return controllers_[static_cast<std::size_t>(shard)]
        .CurrentDramRequirement();
  }
  const server::AdmissionController& controller(std::int32_t shard) const {
    return controllers_[static_cast<std::size_t>(shard)];
  }

  std::int64_t attempts() const { return tally_.attempts; }
  std::int64_t admitted() const { return tally_.admitted; }
  std::int64_t rejected() const { return tally_.rejected; }

 private:
  explicit AdmissionRouter(const Placement* placement)
      : placement_(placement) {}

  /// Offers the stream to `candidates`, least-loaded first. Returns the
  /// admitting shard, with its verdict in `verdict`, or -1; a rejection
  /// writes its reason to a non-null `reason`.
  std::int32_t RouteSet(ShardSet candidates, BytesPerSecond bit_rate,
                        RouteTally* tally, server::AdmissionVerdict* verdict,
                        std::string* reason);

  const Placement* placement_;
  std::vector<server::AdmissionController> controllers_;  ///< per shard
  std::vector<std::uint8_t> up_;  ///< 1 = up
  std::unique_ptr<const server::SizingTable> table_;  ///< shared by all
  RouteTally tally_;
};

/// The shard groups of a placement: two shards share a group when some
/// title has a copy on both, directly or through a chain of titles. No
/// title's candidates cross a group, so groups route independently.
/// The pass also keeps every title's candidates, so a caller routing
/// many offers can skip the placement lookup (RouteAmong).
struct TitleGroups {
  std::int32_t count = 0;              ///< number of groups
  std::vector<std::int32_t> of_title;  ///< group of each title
  /// Title t's candidate shards, in Lookup order, are
  /// copies[first_copy[t]] up to copies[first_copy[t + 1]].
  std::vector<std::int32_t> first_copy;
  std::vector<std::int32_t> copies;

  std::span<const std::int32_t> candidates(std::int64_t title) const {
    const auto t = static_cast<std::size_t>(title);
    return {copies.data() + first_copy[t],
            copies.data() + first_copy[t + 1]};
  }
};

/// Unions every title's candidate ShardSet into shard groups, numbered
/// in order of each group's lowest shard.
TitleGroups GroupTitles(const Placement& placement);

}  // namespace memstream::farm

#endif  // MEMSTREAM_FARM_ROUTER_H_
