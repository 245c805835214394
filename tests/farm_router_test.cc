// Farm admission router: Theorem-1/2 headroom enforcement per shard,
// least-loaded replica choice, down-shard skipping, release accounting,
// and the shared sizing table (decision-identical to solving, and an
// admitting Route is allocation-free: this binary replaces global
// operator new with a counting version, as in placement_test).

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "device/device_catalog.h"
#include "device/disk.h"
#include "farm/placement.h"
#include "farm/router.h"
#include "model/incremental.h"
#include "model/profiles.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace memstream::farm {
namespace {

std::int64_t CurrentAllocs() {
  return g_allocations.load(std::memory_order_relaxed);
}

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

// A router sharing one sizing table routes exactly like one that solves
// every candidate: same shard, load, dram_required bits and rejection
// text, through budget rejections, releases, a down shard and "no live
// replica". A third of the offers go through RouteAmong with
// GroupTitles' candidate lists.
TEST(AdmissionRouterTest, SharedSizingTableRoutesLikeTheSolve) {
  PlacementConfig pc = SmallPlacement(8, 2);
  pc.replication_budget = 0.10;
  auto p = PopularityAwarePlacement::Create(pc);
  ASSERT_TRUE(p.ok());
  auto probe = AdmissionRouter::Create(p.value().get(), SmallRouter(12 * kMB));
  auto tabled = AdmissionRouter::Create(p.value().get(), SmallRouter(12 * kMB));
  ASSERT_TRUE(probe.ok() && tabled.ok());
  ASSERT_TRUE(tabled.value().ShareSizingTable(100 * kKBps, 4000).ok());
  const TitleGroups groups = GroupTitles(*p.value());

  Rng rng(28);
  std::vector<std::pair<std::int32_t, BytesPerSecond>> held;
  int rejected = 0, no_live = 0;
  for (int step = 0; step < 4000; ++step) {
    if (step == 1500) {
      ASSERT_TRUE(probe.value().SetShardUp(0, false).ok());
      ASSERT_TRUE(tabled.value().SetShardUp(0, false).ok());
      ASSERT_TRUE(probe.value().SetShardUp(4, false).ok());
      ASSERT_TRUE(tabled.value().SetShardUp(4, false).ok());
    }
    if (step == 2500) {
      ASSERT_TRUE(probe.value().SetShardUp(0, true).ok());
      ASSERT_TRUE(tabled.value().SetShardUp(0, true).ok());
    }
    if (!held.empty() && rng.NextInt(0, 4) == 0) {
      const auto victim = static_cast<std::size_t>(
          rng.NextInt(0, static_cast<std::int64_t>(held.size()) - 1));
      const auto [shard, rate] = held[victim];
      ASSERT_TRUE(probe.value().Release(shard, rate).ok());
      ASSERT_TRUE(tabled.value().Release(shard, rate).ok());
      held[victim] = held.back();
      held.pop_back();
      continue;
    }
    const std::int64_t title = rng.NextInt(0, pc.num_titles - 1);
    // Mostly the table's rate; a few 1 MB/s streams make shards mixed.
    const BytesPerSecond rate =
        rng.NextInt(0, 19) == 0 ? 1 * kMBps : 100 * kKBps;
    const RouteDecision want = probe.value().Route(title, rate);
    if (step % 3 == 0) {
      // The lookup-free form reports only the admitting shard.
      RouteTally tally;
      ASSERT_EQ(tabled.value().RouteAmong(groups.candidates(title), rate,
                                          &tally),
                want.shard)
          << "step " << step;
      EXPECT_EQ(tally.admitted, want.admitted ? 1 : 0);
      EXPECT_EQ(tally.rejected, want.admitted ? 0 : 1);
    } else {
      const RouteDecision got = tabled.value().Route(title, rate);
      ASSERT_EQ(got.admitted, want.admitted) << "step " << step;
      ASSERT_EQ(got.shard, want.shard) << "step " << step;
      ASSERT_EQ(got.streams_on_shard, want.streams_on_shard)
          << "step " << step;
      ASSERT_EQ(model::DoubleBits(got.dram_required),
                model::DoubleBits(want.dram_required))
          << "step " << step;
      ASSERT_EQ(got.reason, want.reason) << "step " << step;
    }
    if (want.admitted) {
      held.emplace_back(want.shard, rate);
    } else {
      ++rejected;
      if (want.reason == "no live replica") ++no_live;
    }
  }
  EXPECT_GT(rejected, no_live);
  EXPECT_GT(no_live, 0);
}

// An admitting Route answered from the shared table touches no heap,
// from a shard's first stream on (rejections may still allocate their
// reason text).
TEST(AdmissionRouterTest, TableRouteThatAdmitsIsAllocationFree) {
  PlacementConfig pc = SmallPlacement(8, 2);
  pc.replication_budget = 0.10;
  auto p = PopularityAwarePlacement::Create(pc);
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(12 * kMB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();
  ASSERT_TRUE(r.ShareSizingTable(100 * kKBps, 4000).ok());
  const TitleGroups groups = GroupTitles(*p.value());
  RouteTally tally;
  std::int64_t admitted = 0, rejected = 0;
  for (std::int64_t i = 0; i < 3000; ++i) {
    const std::int64_t title = (i * 7919) % pc.num_titles;
    const std::int64_t before = CurrentAllocs();
    const bool ok =
        i % 2 == 0
            ? r.Route(title, 100 * kKBps).admitted
            : r.RouteAmong(groups.candidates(title), 100 * kKBps, &tally) >= 0;
    if (ok) {
      ++admitted;
      ASSERT_EQ(CurrentAllocs(), before) << "offer " << i;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(admitted, 100);
  EXPECT_GT(rejected, 0) << "the shards never reached the table's end";
}

TEST(AdmissionRouterTest, ShareSizingTableValidatesItsInputs) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(2, 1));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(1 * kGB));
  ASSERT_TRUE(router.ok());
  EXPECT_FALSE(router.value().ShareSizingTable(0, 10).ok());
  EXPECT_FALSE(router.value().ShareSizingTable(1 * kMBps, 0).ok());
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

TEST(GroupTitlesTest, CandidatesFollowLookup) {
  PlacementConfig pc = SmallPlacement(8, 3);
  pc.replication_budget = 0.2;
  auto pop = PopularityAwarePlacement::Create(pc);
  auto ring = ConsistentHashPlacement::Create(pc);
  ASSERT_TRUE(pop.ok() && ring.ok());
  for (const Placement* placement :
       {static_cast<const Placement*>(pop.value().get()),
        static_cast<const Placement*>(ring.value().get())}) {
    const TitleGroups groups = GroupTitles(*placement);
    EXPECT_EQ(static_cast<std::int64_t>(groups.copies.size()),
              placement->total_copies());
    for (std::int64_t t = 0; t < placement->num_titles(); ++t) {
      const ShardSet set = placement->Lookup(t);
      const std::span<const std::int32_t> got = groups.candidates(t);
      ASSERT_EQ(static_cast<std::int32_t>(got.size()), set.count) << t;
      for (std::int32_t i = 0; i < set.count; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  set.shard[static_cast<std::size_t>(i)])
            << "title " << t;
      }
    }
  }
}

}  // namespace
}  // namespace memstream::farm
