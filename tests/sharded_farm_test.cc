// Sharded farm executor: the determinism contract (byte-identical merged
// report, journal event order and slo.* gauges at any thread count, shard
// rows independent of their workspace and equal to the shard's own
// simulation), the routing decisions against a
// serial full-scan reference, the failover/readmit semantics of the two
// placements, and the farm block.

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "device/device_catalog.h"
#include "device/disk.h"
#include "farm/shard_workspace.h"
#include "farm/sharded_farm.h"
#include "fault/fault_plan.h"
#include "model/profiles.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "server/admission.h"
#include "workload/popularity.h"

namespace memstream::farm {
namespace {

fault::FaultPlan NodeOutage(std::int64_t shard, Seconds fail, Seconds repair) {
  std::vector<fault::FaultEvent> events;
  fault::FaultEvent down;
  down.time = fail;
  down.kind = fault::FaultKind::kMemsDeviceFail;
  down.device = shard;
  events.push_back(down);
  fault::FaultEvent up;
  up.time = repair;
  up.kind = fault::FaultKind::kMemsDeviceRepair;
  up.device = shard;
  events.push_back(up);
  return fault::FaultPlan::FromScript(events);
}

ShardedFarmConfig SmallFarm() {
  ShardedFarmConfig config;
  config.num_shards = 4;
  config.num_titles = 200;
  config.zipf_exponent = 0.8;
  config.offered_streams = 400;
  config.bit_rate = 100 * kKBps;
  config.node_disk = device::FutureDisk2007();
  config.node_disk.inner_rate = config.node_disk.outer_rate;
  config.dram_budget_per_shard = 12 * kMB;
  config.duration = 6;
  config.seed = 42;
  return config;
}

TEST(ShardedFarmTest, RejectsBadConfig) {
  ShardedFarmConfig config = SmallFarm();
  config.num_shards = 0;
  EXPECT_FALSE(RunShardedFarm(config).ok());
  config = SmallFarm();
  config.offered_streams = -1;
  EXPECT_FALSE(RunShardedFarm(config).ok());
  config.offered_streams = std::int64_t{1} << 31;  // stream ids are int32
  EXPECT_FALSE(RunShardedFarm(config).ok());
  config = SmallFarm();
  config.num_titles = std::int64_t{1} << 31;  // titles are int32
  EXPECT_FALSE(RunShardedFarm(config).ok());
  config = SmallFarm();
  config.duration = 0;
  EXPECT_FALSE(RunShardedFarm(config).ok());
}

// A shard-epoch's row and per-stream results depend only on its task:
// a workspace dirtied by a larger shard and by a per-stream (journaled)
// run yields exactly what a fresh one does.
TEST(ShardedFarmTest, ShardEpochDoesNotDependOnItsWorkspace) {
  const ShardedFarmConfig config = SmallFarm();
  const ShardEpochTask task{.streams = 30, .length = 2.5, .per_stream = true};

  ShardWorkspace fresh(config);
  const ShardEpoch want = fresh.Run(task);
  ASSERT_TRUE(want.ran) << want.error;
  EXPECT_EQ(want.streams, 30);
  EXPECT_GT(want.ios, 0);
  ASSERT_EQ(want.per_stream.size(), 30u);
  EXPECT_EQ(want.per_stream.back().id, 29);  // per-stream ids are indices

  ShardWorkspace dirty(config);
  const ShardEpoch big =
      dirty.Run({.streams = 90, .length = 4.0, .per_stream = true});
  ASSERT_TRUE(big.ran) << big.error;
  ASSERT_EQ(big.per_stream.size(), 90u);
  EXPECT_EQ(dirty.Run(task), want);

  // Without per-stream rows the totals are unchanged.
  ShardEpochTask totals = task;
  totals.per_stream = false;
  ShardEpoch want_totals = want;
  want_totals.per_stream.clear();
  EXPECT_EQ(dirty.Run(totals), want_totals);
  EXPECT_EQ(fresh.Run(totals), want_totals);

  // An empty shard does not run.
  const ShardEpoch idle = dirty.Run({.streams = 0, .length = 1.0});
  EXPECT_FALSE(idle.ran);
  EXPECT_TRUE(idle.error.empty());
}

// The farm simulates each distinct resident count once per epoch and
// gives every shard with that count the row of that one run. Each
// shard's totals must be those of its own simulation, in a farm where
// shards do share a count, and the journal must hold each stream's
// results once.
TEST(ShardedFarmTest, EveryShardRowMatchesItsOwnSimulation) {
  ShardedFarmConfig config = SmallFarm();
  config.policy = PlacementPolicy::kPopularityAware;
  config.replicas = 2;
  config.replication_budget = 0.10;
  config.offered_streams = 800;
  obs::StreamJournal journal;
  config.journal = &journal;
  auto result = RunShardedFarm(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FarmRunReport& r = result.value();

  std::vector<std::int64_t> counts;
  for (const FarmShardReport& s : r.per_shard) counts.push_back(s.streams);
  std::sort(counts.begin(), counts.end());
  ASSERT_NE(std::adjacent_find(counts.begin(), counts.end()), counts.end())
      << "no two shards share a resident count";
  EXPECT_EQ(r.shard_epochs, r.shards);
  EXPECT_LT(r.sweep.tasks, r.shard_epochs);

  // Per-stream (ios, bytes, peak) of every shard's own simulation, and
  // of every journaled stream.
  using StreamTotals = std::tuple<std::int64_t, Bytes, Bytes>;
  std::vector<StreamTotals> want_streams;
  for (const FarmShardReport& s : r.per_shard) {
    ASSERT_GT(s.streams, 0);
    ShardWorkspace own(config);
    const ShardEpoch row = own.Run(
        {.streams = s.streams, .length = config.duration, .per_stream = true});
    ASSERT_TRUE(row.ran) << row.error;
    for (const StreamEpoch& se : row.per_stream) {
      want_streams.emplace_back(se.ios, se.bytes, se.peak);
    }
    EXPECT_EQ(s.ios_completed, row.ios) << "shard " << s.shard;
    EXPECT_EQ(s.cycle_overruns, row.overruns) << "shard " << s.shard;
    EXPECT_EQ(s.underflow_events, row.underflows) << "shard " << s.shard;
    EXPECT_EQ(s.qos_violations, row.violations) << "shard " << s.shard;
    EXPECT_EQ(s.peak_dram_demand, row.peak_dram) << "shard " << s.shard;
    EXPECT_EQ(s.utilization, row.busy / config.duration)
        << "shard " << s.shard;
  }
  std::vector<StreamTotals> journaled;
  for (std::size_t slot = 0; slot < journal.size(); ++slot) {
    const obs::StreamJournalEntry& e = journal.entry(slot);
    journaled.emplace_back(e.ios, e.bytes, e.peak_level_bytes);
  }
  std::sort(want_streams.begin(), want_streams.end());
  std::sort(journaled.begin(), journaled.end());
  EXPECT_EQ(journaled, want_streams);
}

/// Each shard's resident count right after the fault events before
/// `t` (0 for a down shard): the farm's per-shard run-end count when the
/// run is cut just after `t`'s events.
std::vector<std::int64_t> CountsAfter(ShardedFarmConfig config, Seconds t) {
  config.duration = t;
  auto result = RunShardedFarm(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::int64_t> counts;
  if (!result.ok()) return counts;
  for (const FarmShardReport& s : result.value().per_shard) {
    counts.push_back(s.streams);
  }
  return counts;
}

// The farm simulates each resident count once per run, to its longest
// epoch. With a fail and a repair, each shard's totals over the three
// epochs must be the sum of separate simulations, one per (its count in
// that epoch, the epoch length). The epochs last ~1.5, 2.5 and 1.2 s:
// the first ends exactly on a cycle boundary of a count that runs on
// through the outage, and the repair leaves a count that occurs only in
// the last epoch, shorter than the first.
TEST(ShardedFarmTest, EveryShardSumsItsOwnEpochSimulations) {
  ShardedFarmConfig config = SmallFarm();
  config.policy = PlacementPolicy::kPopularityAware;
  config.replicas = 2;
  config.replication_budget = 0.10;
  config.offered_streams = 800;
  config.duration = 5.2;
  const Seconds repair = 4.0;

  // The counts do not depend on the event times: find a shard the outage
  // leaves alone, and end the first epoch on its k-th cycle start (the
  // server starts cycle k at the k-fold sum of its cycle).
  config.faults = NodeOutage(/*shard=*/0, 1.5, repair);
  const std::vector<std::int64_t> first = CountsAfter(config, 1.0);
  const std::vector<std::int64_t> last = CountsAfter(config, repair + 1e-3);
  ASSERT_EQ(first.size(), 4u);
  std::size_t calm = 1;
  while (calm < first.size() && first[calm] != last[calm]) ++calm;
  ASSERT_LT(calm, first.size()) << "every shard's count moved";
  ASSERT_GT(first[calm], 0);
  auto disk = device::DiskDrive::Create(config.node_disk);
  ASSERT_TRUE(disk.ok());
  auto cycle = model::IoCycleLength(
      first[calm], config.bit_rate,
      model::DiskProfile(disk.value(), first[calm]));
  ASSERT_TRUE(cycle.ok());
  Seconds fail = 0;
  while (fail < 1.4) fail += cycle.value();
  ASSERT_LT(fail, 1.6);
  config.faults = NodeOutage(/*shard=*/0, fail, repair);

  const std::vector<Seconds> lengths = {fail, repair - fail,
                                        config.duration - repair};
  const std::vector<std::vector<std::int64_t>> counts = {
      first, CountsAfter(config, fail + 1e-3),
      CountsAfter(config, repair + 1e-3)};
  ASSERT_EQ(counts[1][0], 0);  // shard 0 is down in the outage epoch
  ASSERT_EQ(counts[1][calm], first[calm]);
  ASSERT_EQ(counts[2], last);
  ASSERT_LT(lengths[0], lengths[1]);
  ASSERT_LT(lengths[2], lengths[0]);
  std::vector<std::int64_t> distinct;
  std::int64_t rows = 0;
  for (const std::vector<std::int64_t>& epoch : counts) {
    for (const std::int64_t n : epoch) {
      if (n == 0) continue;
      ++rows;
      distinct.push_back(n);
    }
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const bool last_only = std::any_of(
      last.begin(), last.end(), [&](std::int64_t n) {
        return std::find(counts[0].begin(), counts[0].end(), n) ==
                   counts[0].end() &&
               std::find(counts[1].begin(), counts[1].end(), n) ==
                   counts[1].end();
      });
  ASSERT_TRUE(last_only) << "no count occurs only in the last epoch";

  for (const int threads : {1, 3}) {
    config.threads = threads;
    auto result = RunShardedFarm(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const FarmRunReport& r = result.value();
    EXPECT_GT(r.failovers, 0);
    EXPECT_EQ(r.shard_epochs, rows);
    EXPECT_EQ(r.sweep.tasks, static_cast<std::int64_t>(distinct.size()));

    std::int64_t farm_ios = 0;
    for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
      FarmShardReport want;
      double busy = 0;
      double up = 0;
      for (std::size_t e = 0; e < counts.size(); ++e) {
        if (!(s == 0 && e == 1)) up += lengths[e];
        const std::int64_t n = counts[e][s];
        if (n == 0) continue;
        ShardWorkspace own(config);
        const ShardEpoch row = own.Run({.streams = n, .length = lengths[e]});
        ASSERT_TRUE(row.ran) << row.error;
        want.ios_completed += row.ios;
        want.cycle_overruns += row.overruns;
        want.underflow_events += row.underflows;
        want.qos_violations += row.violations;
        want.peak_dram_demand = std::max(want.peak_dram_demand, row.peak_dram);
        busy += row.busy;
      }
      const FarmShardReport& got = r.per_shard[s];
      EXPECT_EQ(got.ios_completed, want.ios_completed) << "shard " << s;
      EXPECT_EQ(got.cycle_overruns, want.cycle_overruns) << "shard " << s;
      EXPECT_EQ(got.underflow_events, want.underflow_events) << "shard " << s;
      EXPECT_EQ(got.qos_violations, want.qos_violations) << "shard " << s;
      EXPECT_EQ(got.peak_dram_demand, want.peak_dram_demand) << "shard " << s;
      EXPECT_EQ(got.utilization, busy / up) << "shard " << s;
      farm_ios += want.ios_completed;
    }
    EXPECT_EQ(r.ios_completed, farm_ios);
  }
}

TEST(ShardedFarmTest, AdmitsAndServesCleanlyWithoutFaults) {
  ShardedFarmConfig config = SmallFarm();
  auto result = RunShardedFarm(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FarmRunReport& r = result.value();
  EXPECT_EQ(r.offered, 400);
  EXPECT_EQ(r.admitted + r.rejected, r.offered);
  EXPECT_GT(r.admitted, 0);
  EXPECT_EQ(r.shed_actions, 0);
  EXPECT_EQ(r.failovers, 0);
  EXPECT_EQ(r.underflow_events, 0);
  EXPECT_EQ(r.qos_violations, 0);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_GT(r.ios_completed, 0);
  EXPECT_GT(r.peak_dram_per_shard, 0);
  EXPECT_LE(r.peak_dram_per_shard, config.dram_budget_per_shard);
  ASSERT_EQ(static_cast<std::int64_t>(r.per_shard.size()), r.shards);
  std::int64_t streams = 0;
  for (const FarmShardReport& s : r.per_shard) streams += s.streams;
  EXPECT_EQ(streams, r.admitted);
}

// The satellite contract: a seeded farm run produces a byte-identical
// merged report — farm block, journal event order, slo.* gauges and
// metrics included — at 1 and at 8 sweep threads.
TEST(ShardedFarmTest, MergedReportIsByteIdenticalAcrossThreadCounts) {
  auto run = [](int threads, std::string* json) {
    ShardedFarmConfig config = SmallFarm();
    config.policy = PlacementPolicy::kPopularityAware;
    config.replicas = 2;
    config.replication_budget = 0.10;
    config.faults = NodeOutage(/*shard=*/0, /*fail=*/2.4, /*repair=*/4.5);
    config.threads = threads;
    obs::StreamJournal journal;
    obs::SloMonitor slo;
    obs::MetricsRegistry metrics;
    config.journal = &journal;
    config.slo = &slo;
    config.metrics = &metrics;

    auto result = RunShardedFarm(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const FarmRunReport& r = result.value();
    EXPECT_EQ(r.sweep.threads, threads);
    EXPECT_GT(r.failovers, 0);  // the outage must actually exercise merge

    obs::RunReport report;
    report.title = "sharded farm determinism";
    const obs::FarmBlock block = BuildFarmBlock(r);
    report.farm = &block;
    report.streams = &journal;
    report.slo = &slo;
    report.metrics = &metrics;
    *json = report.ToJson();
  };
  std::string at_one;
  std::string at_eight;
  run(1, &at_one);
  run(8, &at_eight);
  ASSERT_FALSE(at_one.empty());
  EXPECT_EQ(at_one, at_eight)
      << "merged farm report must not depend on the thread count";
}

// What a farm run's admission, failover and readmit decisions come to.
struct RoutingOutcome {
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t failovers = 0;
  std::int64_t readmits = 0;
  std::int64_t shed = 0;
  std::vector<std::int64_t> shard_streams;  ///< residents at run end
  std::vector<std::int64_t> shard_shed;
  std::vector<std::int64_t> failed_over_in;
  /// Per stream id, its journaled shed and readmit events in order.
  std::vector<std::vector<std::pair<obs::StreamEventKind, double>>> events;
};

std::vector<std::pair<obs::StreamEventKind, double>> ShedAndReadmits(
    const obs::StreamJournal& journal, std::int64_t id) {
  std::vector<std::pair<obs::StreamEventKind, double>> out;
  const std::ptrdiff_t slot = journal.SlotOf(id);
  if (slot < 0) return out;
  for (const obs::StreamEvent& e :
       journal.entry(static_cast<std::size_t>(slot)).events) {
    if (e.kind == obs::StreamEventKind::kShed ||
        e.kind == obs::StreamEventKind::kReadmitted) {
      out.emplace_back(e.kind, e.t);
    }
  }
  return out;
}

// The farm's routing as one serial pass: route each offer as it is
// drawn, then at every fail/repair instant scan all streams in id order
// (a failed shard's residents shed and fail over; a repair retries every
// shed stream). Decisions only, no simulation.
RoutingOutcome ReferenceRouting(const ShardedFarmConfig& config) {
  RoutingOutcome out;
  PlacementConfig pc;
  pc.num_shards = config.num_shards;
  pc.num_titles = config.num_titles;
  pc.replicas = config.replicas;
  pc.virtual_nodes = config.virtual_nodes;
  pc.zipf_exponent = config.zipf_exponent;
  pc.replication_budget = config.replication_budget;
  pc.seed = config.seed;
  auto placement = MakePlacement(config.policy, pc);
  EXPECT_TRUE(placement.ok());
  auto probe = device::DiskDrive::Create(config.node_disk);
  EXPECT_TRUE(probe.ok());
  RouterConfig rc;
  rc.dram_budget_per_shard = config.dram_budget_per_shard;
  rc.node_rate = probe.value().parameters().outer_rate;
  rc.node_latency = model::DiskLatencyFn(probe.value());
  auto created = AdmissionRouter::Create(placement.value().get(), rc);
  EXPECT_TRUE(created.ok());
  AdmissionRouter& router = created.value();
  auto sampler =
      workload::ZipfSampler::Create(config.num_titles, config.zipf_exponent);
  EXPECT_TRUE(sampler.ok());

  struct Rec {
    std::int64_t title = 0;
    std::int32_t shard = -1;
  };
  std::vector<Rec> streams;
  Rng rng(config.seed);
  for (std::int64_t i = 0; i < config.offered_streams; ++i) {
    const std::int64_t title = sampler.value().Sample(rng);
    const RouteDecision d = router.Route(title, config.bit_rate);
    if (d.admitted) {
      streams.push_back({title, d.shard});
      ++out.admitted;
    } else {
      ++out.rejected;
    }
  }

  obs::StreamJournal journal;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    journal.EnsureStream(static_cast<std::int64_t>(i), config.bit_rate, 0,
                         0.0);
  }
  out.shard_shed.assign(static_cast<std::size_t>(config.num_shards), 0);
  out.failed_over_in.assign(static_cast<std::size_t>(config.num_shards), 0);
  std::vector<Seconds> instants;
  for (const fault::FaultEvent& e : config.faults.events()) {
    if (e.time > 0 && e.time < config.duration) instants.push_back(e.time);
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());
  for (const Seconds t : instants) {
    for (const fault::FaultEvent& e : config.faults.events()) {
      if (e.time != t) continue;
      const auto s = static_cast<std::int32_t>(e.device);
      if (e.kind == fault::FaultKind::kMemsDeviceFail) {
        EXPECT_TRUE(router.SetShardUp(s, false).ok());
        for (std::size_t i = 0; i < streams.size(); ++i) {
          if (streams[i].shard != s) continue;
          EXPECT_TRUE(router.Release(s, config.bit_rate).ok());
          streams[i].shard = -1;
          ++out.shed;
          ++out.shard_shed[static_cast<std::size_t>(s)];
          journal.MarkShed(i, t);
          const RouteDecision d = router.Route(streams[i].title,
                                               config.bit_rate);
          if (!d.admitted) continue;
          streams[i].shard = d.shard;
          ++out.failovers;
          ++out.readmits;
          ++out.failed_over_in[static_cast<std::size_t>(d.shard)];
          journal.MarkReadmitted(i, t);
        }
      } else if (e.kind == fault::FaultKind::kMemsDeviceRepair) {
        EXPECT_TRUE(router.SetShardUp(s, true).ok());
        for (std::size_t i = 0; i < streams.size(); ++i) {
          if (streams[i].shard != -1) continue;
          const RouteDecision d = router.Route(streams[i].title,
                                               config.bit_rate);
          if (!d.admitted) continue;
          streams[i].shard = d.shard;
          ++out.readmits;
          journal.MarkReadmitted(i, t);
        }
      }
    }
  }
  for (std::int32_t s = 0; s < router.num_shards(); ++s) {
    out.shard_streams.push_back(router.admitted_on(s));
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    out.events.push_back(
        ShedAndReadmits(journal, static_cast<std::int64_t>(i)));
  }
  return out;
}

RoutingOutcome FarmRouting(ShardedFarmConfig config, int threads) {
  RoutingOutcome out;
  obs::StreamJournal journal;
  config.journal = &journal;
  config.threads = threads;
  auto result = RunShardedFarm(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return out;
  const FarmRunReport& r = result.value();
  out.admitted = r.admitted;
  out.rejected = r.rejected;
  out.failovers = r.failovers;
  out.readmits = r.readmits;
  out.shed = r.shed_actions;
  for (const FarmShardReport& s : r.per_shard) {
    out.shard_streams.push_back(s.streams);
    out.shard_shed.push_back(s.shed);
    out.failed_over_in.push_back(s.failed_over_in);
  }
  for (std::int64_t i = 0; i < r.admitted; ++i) {
    out.events.push_back(ShedAndReadmits(journal, i));
  }
  return out;
}

// Both placements route exactly like one serial pass with full scans,
// at 1 and 8 threads: popularity-aware (replicas on shards {s, s + 4},
// so four shard groups), consistent hashing with one copy (a group per
// shard) and with two (one group). Shards 0 and 4 fail at the same
// instant, so head streams failing over from shard 0 land on shard 4
// and are shed again; both come back at one instant.
TEST(ShardedFarmTest, RoutingMatchesSerialFullScanReference) {
  struct Placed {
    PlacementPolicy policy;
    std::int64_t replicas;
  };
  const Placed placements[] = {{PlacementPolicy::kPopularityAware, 2},
                               {PlacementPolicy::kConsistentHash, 1},
                               {PlacementPolicy::kConsistentHash, 2}};
  std::vector<fault::FaultEvent> events;
  for (const std::int64_t shard : {0, 4}) {
    fault::FaultEvent down;
    down.time = 2.0;
    down.kind = fault::FaultKind::kMemsDeviceFail;
    down.device = shard;
    events.push_back(down);
  }
  for (const std::int64_t shard : {0, 4}) {
    fault::FaultEvent up;
    up.time = 4.0;
    up.kind = fault::FaultKind::kMemsDeviceRepair;
    up.device = shard;
    events.push_back(up);
  }
  const fault::FaultPlan plan = fault::FaultPlan::FromScript(events);

  bool saw_chained_failover = false;
  for (const Placed& placed : placements) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      ShardedFarmConfig config = SmallFarm();
      config.num_shards = 8;
      config.offered_streams = 2000;
      config.dram_budget_per_shard = 12 * kMB;
      config.duration = 5;
      config.policy = placed.policy;
      config.replicas = placed.replicas;
      config.replication_budget = 0.10;
      config.faults = plan;
      config.seed = seed;
      config.audit = false;
      const RoutingOutcome want = ReferenceRouting(config);
      EXPECT_GT(want.rejected, 0);
      EXPECT_GT(want.shed, 0);
      if (placed.policy == PlacementPolicy::kPopularityAware &&
          want.failed_over_in[4] > 0 && want.shard_shed[4] > 0) {
        saw_chained_failover = true;
      }
      for (const int threads : {1, 8}) {
        SCOPED_TRACE(std::string(PlacementPolicyName(placed.policy)) +
                     " replicas " + std::to_string(placed.replicas) +
                     " seed " + std::to_string(seed) + " threads " +
                     std::to_string(threads));
        const RoutingOutcome got = FarmRouting(config, threads);
        EXPECT_EQ(got.admitted, want.admitted);
        EXPECT_EQ(got.rejected, want.rejected);
        EXPECT_EQ(got.failovers, want.failovers);
        EXPECT_EQ(got.readmits, want.readmits);
        EXPECT_EQ(got.shed, want.shed);
        EXPECT_EQ(got.shard_streams, want.shard_streams);
        EXPECT_EQ(got.shard_shed, want.shard_shed);
        EXPECT_EQ(got.failed_over_in, want.failed_over_in);
        EXPECT_EQ(got.events, want.events);
      }
    }
  }
  EXPECT_TRUE(saw_chained_failover)
      << "no failover onto shard 4 was shed again by its own failure";
}

// The same reference comparison where the shared sizing table ends at
// the bandwidth bound rather than the budget: 5 MB/s streams on a
// ~300 MB/s node with a budget that never binds, so shards fill to the
// table's failing count and its reason is the solver's.
TEST(ShardedFarmTest, RoutingMatchesReferenceAtTheTablesFailingCount) {
  std::vector<fault::FaultEvent> events;
  fault::FaultEvent down;
  down.time = 2.0;
  down.kind = fault::FaultKind::kMemsDeviceFail;
  down.device = 0;
  events.push_back(down);
  fault::FaultEvent up = down;
  up.time = 4.0;
  up.kind = fault::FaultKind::kMemsDeviceRepair;
  events.push_back(up);

  ShardedFarmConfig config = SmallFarm();
  config.num_shards = 8;
  config.offered_streams = 1000;
  config.bit_rate = 5 * kMBps;
  config.dram_budget_per_shard = 1 * kTB;
  config.duration = 5;
  config.policy = PlacementPolicy::kPopularityAware;
  config.replicas = 2;
  config.replication_budget = 0.10;
  config.faults = fault::FaultPlan::FromScript(events);
  config.audit = false;

  // Where the farm's table ends: the first count a node cannot carry.
  auto probe = device::DiskDrive::Create(config.node_disk);
  ASSERT_TRUE(probe.ok());
  server::AdmissionConfig ac;
  ac.dram_budget = config.dram_budget_per_shard;
  ac.disk_rate = probe.value().parameters().outer_rate;
  ac.disk_latency = model::DiskLatencyFn(probe.value());
  auto ctrl = server::AdmissionController::Create(ac);
  ASSERT_TRUE(ctrl.ok());
  auto table = ctrl.value().BuildSizingTable(config.bit_rate,
                                             config.offered_streams);
  ASSERT_TRUE(table.ok());
  ASSERT_LT(table.value().max_count(), config.offered_streams);
  ASSERT_NE(table.value().reason(), "DRAM budget exceeded");

  const RoutingOutcome want = ReferenceRouting(config);
  EXPECT_GT(want.rejected, 0);
  EXPECT_GT(want.shed, 0);
  const std::int64_t full = table.value().max_count() - 1;
  EXPECT_GT(std::count(want.shard_streams.begin(), want.shard_streams.end(),
                       full),
            0)
      << "no shard reached the table's failing count";
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    const RoutingOutcome got = FarmRouting(config, threads);
    EXPECT_EQ(got.admitted, want.admitted);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.failovers, want.failovers);
    EXPECT_EQ(got.readmits, want.readmits);
    EXPECT_EQ(got.shed, want.shed);
    EXPECT_EQ(got.shard_streams, want.shard_streams);
    EXPECT_EQ(got.shard_shed, want.shard_shed);
    EXPECT_EQ(got.failed_over_in, want.failed_over_in);
    EXPECT_EQ(got.events, want.events);
  }
}

TEST(ShardedFarmTest, JournalRecordsShedAndReadmitInOrder) {
  ShardedFarmConfig config = SmallFarm();
  config.faults = NodeOutage(/*shard=*/0, /*fail=*/2.4, /*repair=*/4.5);
  obs::StreamJournal journal;
  config.journal = &journal;
  auto result = RunShardedFarm(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result.value().shed_actions, 0);

  // Every journaled stream's events must be time-ordered, and at least
  // one stream must show the shed -> readmitted arc of the outage.
  bool saw_shed_then_readmit = false;
  for (std::size_t slot = 0; slot < journal.size(); ++slot) {
    const obs::StreamJournalEntry& e = journal.entry(slot);
    for (std::size_t i = 1; i < e.events.size(); ++i) {
      EXPECT_LE(e.events[i - 1].t, e.events[i].t)
          << "stream " << e.stream_id << " event " << i;
    }
    bool shed = false;
    for (const obs::StreamEvent& ev : e.events) {
      if (ev.kind == obs::StreamEventKind::kShed) shed = true;
      if (shed && ev.kind == obs::StreamEventKind::kReadmitted) {
        saw_shed_then_readmit = true;
      }
    }
  }
  EXPECT_TRUE(saw_shed_then_readmit);
}

TEST(ShardedFarmTest, OnlyReplicatedHeadFailsOver) {
  // Same outage, same offered load: consistent hashing (one copy per
  // title) can only shed and wait for the repair; popularity-aware
  // re-admits head streams on surviving replicas.
  ShardedFarmConfig hash = SmallFarm();
  hash.policy = PlacementPolicy::kConsistentHash;
  hash.replicas = 1;
  hash.faults = NodeOutage(/*shard=*/0, /*fail=*/2.4, /*repair=*/4.5);
  auto hash_result = RunShardedFarm(hash);
  ASSERT_TRUE(hash_result.ok()) << hash_result.status().ToString();
  const FarmRunReport& h = hash_result.value();
  EXPECT_GT(h.shed_actions, 0);
  EXPECT_EQ(h.failovers, 0);
  EXPECT_GT(h.readmits, 0);  // the repair brings shed streams back
  EXPECT_LT(h.availability, 1.0);

  ShardedFarmConfig pop = SmallFarm();
  pop.policy = PlacementPolicy::kPopularityAware;
  pop.replicas = 2;
  pop.replication_budget = 0.10;
  pop.faults = NodeOutage(/*shard=*/0, /*fail=*/2.4, /*repair=*/4.5);
  auto pop_result = RunShardedFarm(pop);
  ASSERT_TRUE(pop_result.ok()) << pop_result.status().ToString();
  const FarmRunReport& p = pop_result.value();
  EXPECT_GT(p.failovers, 0);
  EXPECT_GE(p.readmits, p.failovers);
  EXPECT_GT(p.availability, h.availability)
      << "replicating the Zipf head must buy availability";
}

TEST(ShardedFarmTest, FarmBlockMirrorsReport) {
  ShardedFarmConfig config = SmallFarm();
  config.policy = PlacementPolicy::kPopularityAware;
  config.replicas = 2;
  config.faults = NodeOutage(/*shard=*/1, /*fail=*/2.4, /*repair=*/4.5);
  auto result = RunShardedFarm(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FarmRunReport& r = result.value();
  const obs::FarmBlock block = BuildFarmBlock(r);
  EXPECT_EQ(block.policy, r.policy);
  EXPECT_EQ(block.shards, r.shards);
  EXPECT_EQ(block.titles, r.titles);
  EXPECT_EQ(block.total_copies, r.total_copies);
  EXPECT_EQ(block.offered, r.offered);
  EXPECT_EQ(block.admitted, r.admitted);
  EXPECT_EQ(block.rejected, r.rejected);
  EXPECT_EQ(block.failovers, r.failovers);
  EXPECT_EQ(block.shed, r.shed_actions);
  EXPECT_EQ(block.readmits, r.readmits);
  EXPECT_DOUBLE_EQ(block.availability, r.availability);
  EXPECT_EQ(block.peak_dram_per_shard, r.peak_dram_per_shard);
  ASSERT_EQ(block.per_shard.size(), r.per_shard.size());
  for (std::size_t i = 0; i < block.per_shard.size(); ++i) {
    EXPECT_EQ(block.per_shard[i].shard, r.per_shard[i].shard);
    EXPECT_EQ(block.per_shard[i].streams, r.per_shard[i].streams);
    EXPECT_EQ(block.per_shard[i].peak_dram_bytes,
              r.per_shard[i].peak_dram_demand);
  }
}

TEST(ShardedFarmTest, SloGaugesPublishAvailability) {
  ShardedFarmConfig config = SmallFarm();
  config.faults = NodeOutage(/*shard=*/0, /*fail=*/2.4, /*repair=*/4.5);
  obs::SloMonitor slo;
  obs::MetricsRegistry metrics;
  config.slo = &slo;
  config.metrics = &metrics;
  auto result = RunShardedFarm(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto snapshot = slo.Snapshot();
  EXPECT_FALSE(snapshot.empty());
  bool saw_gauge = false;
  for (const auto& m : metrics.Snapshot()) {
    if (m.name.rfind("slo.", 0) == 0) saw_gauge = true;
  }
  EXPECT_TRUE(saw_gauge) << "farm must publish slo.* gauges";
}

}  // namespace
}  // namespace memstream::farm
