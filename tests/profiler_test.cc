// The hierarchical scoped profiler: nesting and exclusive-time
// arithmetic under a fake clock, deterministic cross-thread merge,
// node-table overflow accounting, alloc-delta recording, the disabled
// null-sink path, and the collapsed-stack export.

#include "common/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace memstream {
namespace {

using prof::ProfileNode;
using prof::ProfileSnapshot;
using prof::Profiler;
using prof::ProfScope;

// A controllable clock/alloc counter for deterministic tests. The
// profiler takes plain function pointers, so these are file-scope.
std::atomic<std::int64_t> g_fake_now{0};
std::int64_t FakeClock() {
  return g_fake_now.load(std::memory_order_relaxed);
}

std::atomic<std::int64_t> g_fake_allocs{0};
std::int64_t FakeAllocCounter() {
  return g_fake_allocs.load(std::memory_order_relaxed);
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Global().Disable();
    Profiler::Global().Reset();
    g_fake_now = 0;
    g_fake_allocs = 0;
    Profiler::Global().SetClockForTesting(&FakeClock);
    Profiler::Global().Enable();
  }
  void TearDown() override {
    Profiler::Global().Disable();
    Profiler::Global().SetClockForTesting(nullptr);
    Profiler::Global().SetAllocCounter(nullptr);
    Profiler::Global().Reset();
  }
};

const ProfileNode* FindChild(const std::vector<ProfileNode>& nodes,
                             const std::string& name) {
  for (const auto& n : nodes) {
    if (n.name == name) return &n;
  }
  return nullptr;
}

TEST_F(ProfilerTest, NestedScopesSplitInclusiveAndExclusiveTime) {
  {
    ProfScope outer("outer");
    g_fake_now += 10;
    {
      ProfScope inner("inner");
      g_fake_now += 30;
    }
    g_fake_now += 5;
  }
  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);
  const ProfileNode& outer = snap.roots[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1);
  EXPECT_EQ(outer.inclusive_ns, 45);
  EXPECT_EQ(outer.exclusive_ns, 15);  // 45 - 30 spent in the child
  ASSERT_EQ(outer.children.size(), 1u);
  const ProfileNode& inner = outer.children[0];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.inclusive_ns, 30);
  EXPECT_EQ(inner.exclusive_ns, 30);
  EXPECT_EQ(snap.total_inclusive_ns(), 45);
  EXPECT_EQ(snap.dropped_samples, 0);
}

TEST_F(ProfilerTest, RepeatedScopesAccumulateCountsAndTime) {
  for (int i = 0; i < 5; ++i) {
    ProfScope s("loop");
    g_fake_now += 7;
  }
  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  const ProfileNode* loop = FindChild(snap.roots, "loop");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->count, 5);
  EXPECT_EQ(loop->inclusive_ns, 35);
}

TEST_F(ProfilerTest, SameNameUnderDifferentParentsStaysSeparate) {
  {
    ProfScope a("a");
    {
      ProfScope io("io");
      g_fake_now += 3;
    }
  }
  {
    ProfScope b("b");
    {
      ProfScope io("io");
      g_fake_now += 9;
    }
  }
  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  const ProfileNode* a = FindChild(snap.roots, "a");
  const ProfileNode* b = FindChild(snap.roots, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->children.size(), 1u);
  ASSERT_EQ(b->children.size(), 1u);
  EXPECT_EQ(a->children[0].inclusive_ns, 3);
  EXPECT_EQ(b->children[0].inclusive_ns, 9);
}

TEST_F(ProfilerTest, ThreadMergeIsDeterministicAndComplete) {
  // Several threads record the same region names plus one private
  // region each; the merged snapshot must be identical no matter how
  // the threads interleave.
  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      static const char* const kPrivate[] = {"t0", "t1", "t2", "t3"};
      for (int i = 0; i < kIters; ++i) {
        ProfScope shared("shared");
        g_fake_now += 1;
        ProfScope mine(kPrivate[t]);
        g_fake_now += 1;
      }
    });
  }
  for (auto& th : threads) th.join();

  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  EXPECT_EQ(snap.threads, kThreads);
  const ProfileNode* shared = FindChild(snap.roots, "shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->count, kThreads * kIters);
  // Children sorted by name, one per thread.
  ASSERT_EQ(shared->children.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared->children[t].name,
              std::string("t").append(std::to_string(t)));
    EXPECT_EQ(shared->children[t].count, kIters);
  }
  // A second snapshot with no new activity is byte-identical.
  const ProfileSnapshot again = Profiler::Global().Snapshot();
  EXPECT_EQ(prof::CollapsedStackText(snap), prof::CollapsedStackText(again));
}

TEST_F(ProfilerTest, NodeTableOverflowCountsDroppedSamples) {
  // Exhaust the per-thread table with distinct sibling names. Names
  // must outlive the profiler, so build a stable arena first.
  static std::vector<std::string> names;
  if (names.empty()) {
    for (std::uint32_t i = 0; i < prof::internal::ThreadState::kMaxNodes + 8;
         ++i) {
      names.push_back("region_" + std::to_string(i));
    }
  }
  for (const auto& name : names) {
    ProfScope s(name.c_str());
    g_fake_now += 1;
  }
  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  EXPECT_GT(snap.dropped_samples, 0);
  EXPECT_EQ(Profiler::Global().dropped_samples(), snap.dropped_samples);
  // The table kept what fit: kMaxNodes - 1 real regions (node 0 = root).
  EXPECT_EQ(snap.roots.size(),
            static_cast<std::size_t>(
                prof::internal::ThreadState::kMaxNodes - 1));
}

TEST_F(ProfilerTest, AllocCounterRecordsPerRegionDeltas) {
  Profiler::Global().SetAllocCounter(&FakeAllocCounter);
  {
    ProfScope outer("alloc_outer");
    g_fake_allocs += 2;
    {
      ProfScope inner("alloc_inner");
      g_fake_allocs += 5;
    }
  }
  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  const ProfileNode* outer = FindChild(snap.roots, "alloc_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->alloc_delta, 7);  // inclusive, like time
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0].alloc_delta, 5);
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler::Global().Disable();
  {
    ProfScope s("ghost");
    g_fake_now += 100;
  }
  Profiler::Global().Enable();
  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  EXPECT_EQ(FindChild(snap.roots, "ghost"), nullptr);
}

TEST_F(ProfilerTest, ResetDropsAllRecordedData) {
  {
    ProfScope s("before_reset");
    g_fake_now += 1;
  }
  Profiler::Global().Reset();
  Profiler::Global().Enable();
  {
    ProfScope s("after_reset");
    g_fake_now += 1;
  }
  const ProfileSnapshot snap = Profiler::Global().Snapshot();
  EXPECT_EQ(FindChild(snap.roots, "before_reset"), nullptr);
  EXPECT_NE(FindChild(snap.roots, "after_reset"), nullptr);
}

TEST_F(ProfilerTest, CollapsedStackTextUsesSemicolonPathsAndWeights) {
  {
    ProfScope outer("sim");
    g_fake_now += 10;
    {
      ProfScope inner("sim.io");
      g_fake_now += 30;
    }
  }
  const std::string folded =
      prof::CollapsedStackText(Profiler::Global().Snapshot());
  EXPECT_NE(folded.find("sim 10\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("sim;sim.io 30\n"), std::string::npos) << folded;
}

}  // namespace
}  // namespace memstream
