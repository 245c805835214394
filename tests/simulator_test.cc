#include "sim/simulator.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/fifo_lane.h"

namespace memstream::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(3.0, [&] { fired.push_back(3); });
  q.Push(1.0, [&] { fired.push_back(1); });
  q.Push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) {
    Seconds when;
    q.Pop(&when)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongSimultaneous) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Push(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) {
    Seconds when;
    q.Pop(&when)();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<Seconds> seen;
  ASSERT_TRUE(sim.Schedule(5.0, [&] { seen.push_back(sim.Now()); }).ok());
  ASSERT_TRUE(sim.Schedule(2.0, [&] { seen.push_back(sim.Now()); }).ok());
  auto n = sim.Run();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2);
  EXPECT_EQ(seen, (std::vector<Seconds>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&]() {
    ++count;
    if (count < 10) {
      ASSERT_TRUE(sim.Schedule(1.0, tick).ok());
    }
  };
  ASSERT_TRUE(sim.Schedule(1.0, tick).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, BoundedRunStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  ASSERT_TRUE(sim.Schedule(1.0, [&] { ++fired; }).ok());
  ASSERT_TRUE(sim.Schedule(100.0, [&] { ++fired; }).ok());
  auto n = sim.Run(10.0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
  // Resuming processes the rest.
  ASSERT_TRUE(sim.Run(200.0).ok());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopEndsRunEarly) {
  Simulator sim;
  int fired = 0;
  ASSERT_TRUE(sim.Schedule(1.0, [&] {
                    ++fired;
                    sim.Stop();
                  })
                  .ok());
  ASSERT_TRUE(sim.Schedule(2.0, [&] { ++fired; }).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, NegativeDelayRejected) {
  Simulator sim;
  EXPECT_FALSE(sim.Schedule(-1.0, [] {}).ok());
}

TEST(SimulatorTest, PastAbsoluteTimeRejected) {
  Simulator sim;
  ASSERT_TRUE(sim.Schedule(5.0, [] {}).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_FALSE(sim.ScheduleAt(1.0, [] {}).ok());
  EXPECT_TRUE(sim.ScheduleAt(5.0, [] {}).ok());
}

TEST(SimulatorTest, ResetClearsEverything) {
  Simulator sim;
  ASSERT_TRUE(sim.Schedule(1.0, [] {}).ok());
  ASSERT_TRUE(sim.Run().ok());
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.events_processed(), 0);
}

TEST(SimulatorTest, CountsEventsAcrossRuns) {
  Simulator sim;
  ASSERT_TRUE(sim.Schedule(1.0, [] {}).ok());
  ASSERT_TRUE(sim.Schedule(2.0, [] {}).ok());
  ASSERT_TRUE(sim.Run(1.5).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(sim.events_processed(), 2);
}

// ---------------------------------------------------------------------
// Completion lanes

struct Item {
  int tag = 0;
};

TEST(FifoLaneTest, LaneAndHeapAtTheSameTimeFireInPushOrder) {
  Simulator sim;
  FifoLane<Item> lane;
  std::vector<int> fired;
  lane.Bind(&sim, [&](const Item& i) { fired.push_back(i.tag); });
  ASSERT_TRUE(sim.ScheduleAt(1.0, [&] { fired.push_back(1); }).ok());
  ASSERT_TRUE(lane.Push(1.0, {2}).ok());
  ASSERT_TRUE(sim.ScheduleAt(1.0, [&] { fired.push_back(3); }).ok());
  ASSERT_TRUE(lane.Push(1.0, {4}).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(FifoLaneTest, EarliestTimeWinsAcrossLanesAndHeap) {
  Simulator sim;
  FifoLane<Item> a;
  FifoLane<Item> b;
  std::vector<int> fired;
  a.Bind(&sim, [&](const Item& i) { fired.push_back(i.tag); });
  b.Bind(&sim, [&](const Item& i) { fired.push_back(i.tag); });
  ASSERT_TRUE(a.Push(3.0, {30}).ok());
  ASSERT_TRUE(b.Push(1.0, {10}).ok());
  ASSERT_TRUE(sim.ScheduleAt(2.0, [&] { fired.push_back(20); }).ok());
  ASSERT_TRUE(b.Push(4.0, {40}).ok());
  ASSERT_TRUE(a.Push(3.0, {31}).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30, 31, 40}));
  EXPECT_EQ(sim.events_processed(), 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 4.0);
}

TEST(FifoLaneTest, HandlerSeesItsTimeAndMayPushAgain) {
  Simulator sim;
  FifoLane<Item> lane;
  std::vector<Seconds> seen;
  lane.Bind(&sim, [&](const Item& i) {
    seen.push_back(sim.Now());
    if (i.tag < 3) {
      ASSERT_TRUE(lane.Push(sim.Now() + 1.0, {i.tag + 1}).ok());
    }
  });
  ASSERT_TRUE(lane.Push(0.5, {0}).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(seen, (std::vector<Seconds>{0.5, 1.5, 2.5, 3.5}));
}

TEST(FifoLaneTest, ItemsAfterDeadlineStayPendingForTheNextRun) {
  Simulator sim;
  FifoLane<Item> lane;
  std::vector<int> fired;
  lane.Bind(&sim, [&](const Item& i) { fired.push_back(i.tag); });
  ASSERT_TRUE(lane.Push(1.0, {1}).ok());
  ASSERT_TRUE(lane.Push(5.0, {5}).ok());
  auto n = sim.Run(2.0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  EXPECT_EQ(lane.size(), 1u);
  EXPECT_EQ(sim.queue_depth(), 1u);
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{1, 5}));
  EXPECT_TRUE(lane.empty());
}

TEST(FifoLaneTest, StopFromALaneHandlerStopsTheRun) {
  Simulator sim;
  FifoLane<Item> lane;
  std::vector<int> fired;
  lane.Bind(&sim, [&](const Item& i) {
    fired.push_back(i.tag);
    if (i.tag == 1) sim.Stop();
  });
  ASSERT_TRUE(lane.Push(1.0, {1}).ok());
  ASSERT_TRUE(lane.Push(2.0, {2}).ok());
  ASSERT_TRUE(sim.ScheduleAt(1.5, [&] { fired.push_back(15); }).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{1, 15, 2}));
}

TEST(FifoLaneTest, MaxQueueDepthCountsLaneItems) {
  Simulator sim;
  FifoLane<Item> lane;
  lane.Bind(&sim, [](const Item&) {});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(lane.Push(1.0 + i, {i}).ok());
  ASSERT_TRUE(sim.ScheduleAt(0.5, [] {}).ok());
  ASSERT_TRUE(sim.ScheduleAt(9.0, [] {}).ok());
  EXPECT_EQ(sim.queue_depth(), 7u);
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(sim.max_queue_depth(), 7u);
  EXPECT_EQ(sim.events_processed(), 7);
  EXPECT_EQ(sim.queue_depth(), 0u);
}

TEST(FifoLaneTest, ResetClearsLanesButKeepsThemBound) {
  Simulator sim;
  FifoLane<Item> lane;
  int fired = 0;
  lane.Bind(&sim, [&](const Item&) { ++fired; });
  ASSERT_TRUE(lane.Push(1.0, {0}).ok());
  ASSERT_TRUE(lane.Push(2.0, {0}).ok());
  sim.Reset();
  EXPECT_TRUE(lane.empty());
  EXPECT_EQ(sim.queue_depth(), 0u);
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, 0);
  // Still registered: a fresh push fires.
  ASSERT_TRUE(lane.Push(0.5, {0}).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, 1);
}

TEST(FifoLaneTest, RejectsPushesIntoThePastAndUnboundLanes) {
  Simulator sim;
  FifoLane<Item> unbound;
  EXPECT_EQ(unbound.Push(1.0, {0}).code(), StatusCode::kFailedPrecondition);

  FifoLane<Item> lane;
  int fired = 0;
  lane.Bind(&sim, [&](const Item&) { ++fired; });
  ASSERT_TRUE(sim.ScheduleAt(5.0, [] {}).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(lane.Push(4.0, {0}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(lane.Push(5.0, {0}).ok());
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, 1);
}

TEST(FifoLaneTest, PushBehindTheTailStillFiresInTimeAndSeqOrder) {
  // A restarted loop can push behind its lane's tail; the item spills to
  // the heap under the same (time, seq) key instead of breaking order.
  Simulator sim;
  FifoLane<Item> lane;
  std::vector<int> fired;
  lane.Bind(&sim, [&](const Item& i) { fired.push_back(i.tag); });
  ASSERT_TRUE(lane.Push(1.0, {1}).ok());
  ASSERT_TRUE(lane.Push(3.0, {3}).ok());
  ASSERT_TRUE(sim.ScheduleAt(2.0, [&] { fired.push_back(20); }).ok());
  ASSERT_TRUE(lane.Push(2.0, {21}).ok());  // behind the tail (3.0)
  ASSERT_TRUE(lane.Push(1.0, {11}).ok());  // same time as the front
  ASSERT_TRUE(lane.Push(3.0, {31}).ok());
  EXPECT_EQ(sim.queue_depth(), 6u);
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 20, 21, 3, 31}));
  EXPECT_EQ(sim.events_processed(), 6);
}

TEST(FifoLaneTest, RingGrowsAcrossWrapAroundInOrder) {
  Simulator sim;
  FifoLane<Item> lane;
  std::vector<int> fired;
  lane.Bind(&sim, [&](const Item& i) { fired.push_back(i.tag); });
  // Interleave pushes and partial drains so the ring wraps, then grows
  // while wrapped.
  int next = 0;
  std::vector<int> expected;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 10 + round * 7; ++i) {
      ASSERT_TRUE(lane.Push(round + 1.0, {next}).ok());
      expected.push_back(next++);
    }
    ASSERT_TRUE(sim.Run(round + 0.5).ok());
  }
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace memstream::sim
