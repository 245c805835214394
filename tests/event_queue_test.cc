// EventQueue after the flat 4-ary-heap rewrite: ordering, stable FIFO
// tie-breaking, Clear() mid-Run(), and the allocation-free steady state
// (counting operator new, as in move_only_function_test).

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "sim/fifo_lane.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

// GCC pairs `new` expressions with the free() inside these replaced
// operators and warns about the malloc/free crossing; it is intentional
// here — the replacement is malloc-backed on both sides.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too (std::stable_sort's temporary
// buffer allocates through them): leaving them default would pair the
// library allocator's new with our free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace memstream::sim {
namespace {

std::int64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(EventQueueHeapTest, PopsInTimeOrderAcrossRandomInsertions) {
  EventQueue q;
  std::vector<int> fired;
  // Insertion order deliberately scrambled relative to firing times.
  const double times[] = {5.0, 1.0, 4.0, 2.0, 3.0, 0.5, 6.0, 2.5};
  for (int i = 0; i < 8; ++i) {
    q.Push(times[i], [&fired, i] { fired.push_back(i); });
  }
  double last = -1.0;
  while (!q.empty()) {
    Seconds when = 0;
    q.Pop(&when)();
    EXPECT_GE(when, last);
    last = when;
  }
  EXPECT_EQ(fired.size(), 8u);
}

TEST(EventQueueHeapTest, FifoTieBreakSurvivesDeepHeaps) {
  // More ties than one 4-ary node's children, interleaved with other
  // times, so sift-down has to preserve sequence order through moves.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 32; ++i) {
    q.Push(1.0, [&fired, i] { fired.push_back(i); });
  }
  q.Push(0.5, [&fired] { fired.push_back(-1); });
  q.Push(2.0, [&fired] { fired.push_back(-2); });
  while (!q.empty()) {
    Seconds when = 0;
    q.Pop(&when)();
  }
  ASSERT_EQ(fired.size(), 34u);
  EXPECT_EQ(fired.front(), -1);
  EXPECT_EQ(fired.back(), -2);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fired[static_cast<size_t>(i) + 1], i);
}

TEST(EventQueueHeapTest, SteadyStatePushPopDoesNotAllocate) {
  EventQueue q;
  // Warm up: let the backing vector reach its high-water capacity.
  std::int64_t sink = 0;
  for (int i = 0; i < 64; ++i) {
    q.Push(static_cast<double>(i % 7), [&sink, i] { sink += i; });
  }
  while (!q.empty()) {
    Seconds when = 0;
    q.Pop(&when)();
  }
  // Steady state: captures of two pointers/ints stay far below the
  // 48-byte inline budget, and the vector never regrows.
  const std::int64_t before = AllocationCount();
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 64; ++i) {
      q.Push(static_cast<double>((i * 13) % 11), [&sink, i] { sink += i; });
    }
    while (!q.empty()) {
      Seconds when = 0;
      q.Pop(&when)();
    }
  }
  EXPECT_EQ(AllocationCount(), before)
      << "steady-state push/pop must be allocation-free";
  EXPECT_GT(sink, 0);
}

TEST(EventQueueHeapTest, SteadyStateLanePushPopDoesNotAllocate) {
  // A completion lane interleaved with heap events: once its ring has
  // grown to the high-water mark, pushes and dispatches allocate nothing.
  struct Completion {
    std::size_t stream;
    double bytes;
    double service;
    double boundary;
  };
  Simulator sim;
  FifoLane<Completion> lane;
  double sink = 0;
  lane.Bind(&sim, [&sink](const Completion& c) { sink += c.bytes; });
  auto cycle = [&](int round) {
    const double t0 = round * 10.0;
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(lane.Push(t0 + i * 0.01,
                            {static_cast<std::size_t>(i), 1.0, 0.01, t0 + 5})
                      .ok());
    }
    ASSERT_TRUE(sim.ScheduleAt(t0 + 1.0, [&sink] { sink += 1; }).ok());
    ASSERT_TRUE(sim.Run(t0 + 9.0).ok());
  };
  cycle(0);
  const std::int64_t before = AllocationCount();
  for (int round = 1; round < 20; ++round) cycle(round);
  EXPECT_EQ(AllocationCount(), before)
      << "steady-state lane push/dispatch must be allocation-free";
  EXPECT_EQ(sim.events_processed(), 20 * 201);
  EXPECT_GT(sink, 0);
}

TEST(EventQueueHeapTest, CallbackCapturesUpToInlineBudgetStayInline) {
  struct Capture {
    std::int64_t a[6] = {};  // exactly the 48-byte inline budget
  };
  static_assert(
      EventCallback::kStoredInline<decltype([cap = Capture()] { (void)cap; })>);
  EventQueue q;
  std::int64_t warm_sink = 0;
  q.Push(0.0, [&warm_sink] { ++warm_sink; });
  Seconds when = 0;
  q.Pop(&when)();
  const std::int64_t before = AllocationCount();
  Capture cap;
  q.Push(1.0, [cap] { (void)cap.a; });
  q.Pop(&when)();
  EXPECT_EQ(AllocationCount(), before);
}

TEST(EventQueueHeapTest, ClearInsideCallbackMidRunIsSafe) {
  std::vector<int> fired;
  // 20 events; event #3 clears the simulator's queue via Reset-like
  // behavior — here directly through a queue owned by the test.
  EventQueue q;
  for (int i = 0; i < 20; ++i) {
    q.Push(static_cast<double>(i), [&fired, &q, i] {
      fired.push_back(i);
      if (i == 3) q.Clear();
    });
  }
  while (!q.empty()) {
    Seconds when = 0;
    q.Pop(&when)();
  }
  // Events 0..3 fired; the clear dropped the rest.
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired.back(), 3);
  EXPECT_TRUE(q.empty());
  // The queue remains usable after a mid-drain Clear().
  q.Push(1.0, [&fired] { fired.push_back(100); });
  Seconds when = 0;
  q.Pop(&when)();
  EXPECT_EQ(fired.back(), 100);
}

TEST(EventQueueHeapTest, SimulatorStopInsideEventStopsRun) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sim.Schedule(static_cast<double>(i),
                             [&fired, &sim, i] {
                               fired.push_back(i);
                               if (i == 4) sim.Stop();
                             })
                    .ok());
  }
  auto processed = sim.Run();
  ASSERT_TRUE(processed.ok());
  EXPECT_EQ(processed.value(), 5);
  EXPECT_EQ(fired.back(), 4);
}

TEST(EventQueueHeapTest, PushDuringPopCallbackKeepsOrdering) {
  EventQueue q;
  std::vector<double> fired_times;
  q.Push(1.0, [&] {
    fired_times.push_back(1.0);
    q.Push(1.5, [&] { fired_times.push_back(1.5); });
    q.Push(0.5, [&] { fired_times.push_back(0.5); });  // already past
  });
  q.Push(2.0, [&] { fired_times.push_back(2.0); });
  while (!q.empty()) {
    Seconds when = 0;
    q.Pop(&when)();
  }
  ASSERT_EQ(fired_times.size(), 4u);
  // The 0.5 event was inserted after time 1.0 fired, so it pops next
  // (the queue orders whatever is pending; the Simulator's monotonic
  // clock is a layer above).
  EXPECT_DOUBLE_EQ(fired_times[1], 0.5);
  EXPECT_DOUBLE_EQ(fired_times[2], 1.5);
  EXPECT_DOUBLE_EQ(fired_times[3], 2.0);
}

TEST(EventQueueHeapTest, LargeRandomizedHeapMatchesSortedOrder) {
  EventQueue q;
  std::vector<std::pair<double, int>> expected;
  std::uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double when = static_cast<double>(state % 997);
    expected.emplace_back(when, i);
    q.Push(when, [] {});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (const auto& [when_expected, seq] : expected) {
    Seconds when = 0;
    q.Pop(&when);
    EXPECT_DOUBLE_EQ(when, when_expected);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace memstream::sim
