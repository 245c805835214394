// Farm admission router: Theorem-1/2 headroom enforcement per shard,
// least-loaded replica choice, down-shard skipping, and release
// accounting.

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "device/disk.h"
#include "farm/placement.h"
#include "farm/router.h"
#include "model/profiles.h"

namespace memstream::farm {
namespace {

PlacementConfig SmallPlacement(std::int64_t shards, std::int64_t replicas) {
  PlacementConfig config;
  config.num_shards = shards;
  config.num_titles = 100;
  config.replicas = replicas;
  return config;
}

RouterConfig SmallRouter(Bytes dram_budget) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  RouterConfig rc;
  rc.dram_budget_per_shard = dram_budget;
  rc.node_rate = disk.value().parameters().outer_rate;
  rc.node_latency = model::DiskLatencyFn(disk.value());
  return rc;
}

TEST(AdmissionRouterTest, RequiresPlacementAndLatency) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(2, 1));
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(AdmissionRouter::Create(nullptr, SmallRouter(1 * kGB)).ok());
  RouterConfig rc = SmallRouter(1 * kGB);
  rc.node_latency = nullptr;
  EXPECT_FALSE(AdmissionRouter::Create(p.value().get(), rc).ok());
}

TEST(AdmissionRouterTest, AdmitsUntilBudgetThenRejects) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(1, 1));
  ASSERT_TRUE(p.ok());
  // A budget this small caps the single shard at a handful of streams.
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(8 * kMB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  std::int64_t admitted = 0;
  RouteDecision last;
  for (int i = 0; i < 200; ++i) {
    last = r.Route(/*title=*/7, /*bit_rate=*/1 * kMBps);
    if (!last.admitted) break;
    ++admitted;
    EXPECT_EQ(last.shard, 0);
    EXPECT_EQ(last.streams_on_shard, admitted);
    EXPECT_LE(last.dram_required, 8 * kMB);
    EXPECT_TRUE(last.reason.empty());
  }
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 200);
  EXPECT_FALSE(last.admitted);
  EXPECT_EQ(last.shard, -1);
  EXPECT_FALSE(last.reason.empty()) << "rejection must carry a reason";
  EXPECT_EQ(r.admitted(), admitted);
  EXPECT_EQ(r.rejected(), 1);
  EXPECT_EQ(r.attempts(), r.admitted() + r.rejected());
  EXPECT_EQ(r.admitted_on(0), admitted);
}

TEST(AdmissionRouterTest, LeastLoadedReplicaWins) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(4, 2));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(4 * kGB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  // The same title always resolves to the same two replicas; repeated
  // admissions must alternate between them (least-loaded first).
  const ShardSet replicas = p.value()->Lookup(3);
  ASSERT_EQ(replicas.count, 2);
  for (int i = 0; i < 10; ++i) {
    const RouteDecision d = r.Route(3, 1 * kMBps);
    ASSERT_TRUE(d.admitted);
    EXPECT_TRUE(replicas.Contains(d.shard));
  }
  const std::int64_t a = r.admitted_on(replicas.shard[0]);
  const std::int64_t b = r.admitted_on(replicas.shard[1]);
  EXPECT_EQ(a + b, 10);
  EXPECT_LE(std::abs(a - b), 1) << "load must balance across replicas";
}

TEST(AdmissionRouterTest, DownShardIsSkipped) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(4, 2));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(4 * kGB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  const ShardSet replicas = p.value()->Lookup(3);
  ASSERT_EQ(replicas.count, 2);
  ASSERT_TRUE(r.SetShardUp(replicas.shard[0], false).ok());
  EXPECT_FALSE(r.shard_up(replicas.shard[0]));
  for (int i = 0; i < 5; ++i) {
    const RouteDecision d = r.Route(3, 1 * kMBps);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.shard, replicas.shard[1]);
  }
  // With every replica down the request has nowhere to go.
  ASSERT_TRUE(r.SetShardUp(replicas.shard[1], false).ok());
  const RouteDecision d = r.Route(3, 1 * kMBps);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "no live replica");
  // Repair restores routing.
  ASSERT_TRUE(r.SetShardUp(replicas.shard[0], true).ok());
  EXPECT_TRUE(r.Route(3, 1 * kMBps).admitted);
}

TEST(AdmissionRouterTest, ReleaseReturnsHeadroom) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(1, 1));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(8 * kMB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  std::int64_t admitted = 0;
  while (r.Route(0, 1 * kMBps).admitted) ++admitted;
  ASSERT_GT(admitted, 0);
  const Bytes dram_full = r.dram_on(0);
  ASSERT_TRUE(r.Release(0, 1 * kMBps).ok());
  EXPECT_EQ(r.admitted_on(0), admitted - 1);
  EXPECT_LT(r.dram_on(0), dram_full);
  // The freed slot admits again.
  EXPECT_TRUE(r.Route(0, 1 * kMBps).admitted);
  EXPECT_FALSE(r.Release(-1, 1 * kMBps).ok());
  EXPECT_FALSE(r.Release(1, 1 * kMBps).ok());
}

TEST(AdmissionRouterTest, TalliesFoldInFromConcurrentForm) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(2, 1));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(1 * kGB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();
  RouteTally tally;
  ASSERT_TRUE(r.Route(0, 1 * kMBps, &tally).admitted);
  EXPECT_EQ(tally.attempts, 1);
  EXPECT_EQ(tally.admitted, 1);
  EXPECT_EQ(r.attempts(), 0);  // counted in `tally`, not the router
  r.AddTally(tally);
  ASSERT_TRUE(r.Route(1, 1 * kMBps).admitted);
  EXPECT_EQ(r.attempts(), 2);
  EXPECT_EQ(r.admitted(), 2);
  EXPECT_EQ(r.rejected(), 0);
}

TEST(GroupTitlesTest, GroupsFollowTitleCandidates) {
  // Popularity-aware replicas sit num_shards / replicas apart: the head
  // links shard s with s + 4, and the hashed tail links nothing.
  PlacementConfig pc = SmallPlacement(8, 2);
  pc.replication_budget = 0.2;
  auto pop = PopularityAwarePlacement::Create(pc);
  ASSERT_TRUE(pop.ok());
  const TitleGroups groups = GroupTitles(*pop.value());
  ASSERT_EQ(groups.of_title.size(), 100u);
  for (std::int64_t t = 0; t < 100; ++t) {
    const ShardSet set = pop.value()->Lookup(t);
    for (std::int32_t i = 0; i < set.count; ++i) {
      // Labels follow lowest shards, so shard s and s + 4 are group s.
      EXPECT_EQ(groups.of_title[static_cast<std::size_t>(t)],
                set.shard[static_cast<std::size_t>(i)] % 4)
          << "title " << t;
    }
  }
  EXPECT_EQ(groups.count, 4);

  // One copy per title: every shard is its own group.
  auto single = ConsistentHashPlacement::Create(SmallPlacement(8, 1));
  ASSERT_TRUE(single.ok());
  const TitleGroups apart = GroupTitles(*single.value());
  EXPECT_EQ(apart.count, 8);
  for (std::int64_t t = 0; t < 100; ++t) {
    EXPECT_EQ(apart.of_title[static_cast<std::size_t>(t)],
              single.value()->Lookup(t).shard[0]);
  }

  // Two ring successors per title chain the whole ring together.
  auto chained = ConsistentHashPlacement::Create(SmallPlacement(8, 2));
  ASSERT_TRUE(chained.ok());
  const TitleGroups one = GroupTitles(*chained.value());
  EXPECT_EQ(one.count, 1);
  for (const std::int32_t g : one.of_title) EXPECT_EQ(g, 0);
}

}  // namespace
}  // namespace memstream::farm
