#include "device/disk_scheduler.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "device/disk.h"

namespace memstream::device {
namespace {

std::vector<IoSpan> Batch(std::initializer_list<std::int64_t> offsets) {
  std::vector<IoSpan> batch;
  for (auto o : offsets) batch.push_back({o, 1 * kMB});
  return batch;
}

bool IsPermutation(const std::vector<std::size_t>& order, std::size_t n) {
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  return sorted == expected;
}

TEST(SchedulerTest, CLookSweepsUpThenWraps) {
  const auto batch = Batch({50, 10, 90, 30});
  const auto order = ScheduleOrder(40, batch);
  ASSERT_TRUE(IsPermutation(order, 4));
  // Up: 50, 90; wrap to lowest: 10, 30.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1, 3}));
}

TEST(SchedulerTest, EmptyBatch) {
  EXPECT_TRUE(ScheduleOrder(0, {}).empty());
}

TEST(SchedulerTest, CLookProducesPermutations) {
  const auto batch = Batch({5, 3, 9, 1, 7, 7, 2});
  for (std::int64_t head : {0, 4, 7, 10}) {
    EXPECT_TRUE(IsPermutation(ScheduleOrder(head, batch), 7))
        << "head " << head;
  }
}

/// Total busy time of `disk` serving `batch` in `order`.
Seconds ServiceInOrder(DiskDrive& disk, const std::vector<IoSpan>& batch,
                       const std::vector<std::size_t>& order) {
  Seconds total = 0;
  for (std::size_t idx : order) {
    auto t = disk.Service(batch[idx], nullptr);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (t.ok()) total += t.value();
  }
  return total;
}

TEST(SchedulerTest, ElevatorBeatsFcfsOnRandomBatch) {
  auto disk_result = DiskDrive::Create(FutureDisk2007());
  ASSERT_TRUE(disk_result.ok());
  DiskDrive& disk = disk_result.value();

  Rng rng(99);
  std::vector<IoSpan> batch;
  // Small IOs so positioning (what the scheduler controls) dominates.
  for (int i = 0; i < 64; ++i) {
    batch.push_back(
        {rng.NextInt(0, static_cast<std::int64_t>(900 * kGB)), 4 * kKB});
  }
  std::vector<std::size_t> arrival(batch.size());
  std::iota(arrival.begin(), arrival.end(), std::size_t{0});
  disk.Reset();
  const Seconds fcfs = ServiceInOrder(disk, batch, arrival);
  disk.Reset();
  const Seconds elevator = ServiceInOrder(disk, batch, ScheduleOrder(0, batch));
  EXPECT_LT(elevator, fcfs * 0.6)
      << "elevator should cut positioning time drastically";
}

// Reference C-LOOK order: a stable sort by offset, split at the head into
// an upward sweep and the rest, ascending.
std::vector<std::size_t> ReferenceElevatorOrder(
    std::int64_t head, const std::vector<IoSpan>& batch) {
  std::vector<std::size_t> sorted(batch.size());
  std::iota(sorted.begin(), sorted.end(), std::size_t{0});
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](std::size_t a, std::size_t b) {
                     return batch[a].offset < batch[b].offset;
                   });
  std::vector<std::size_t> up;
  std::vector<std::size_t> down;
  for (std::size_t i : sorted) {
    (batch[i].offset >= head ? up : down).push_back(i);
  }
  up.insert(up.end(), down.begin(), down.end());
  return up;
}

TEST(SchedulerTest, ElevatorOrderMatchesStableSortReference) {
  const std::vector<std::vector<IoSpan>> batches = {
      {},
      Batch({42}),
      Batch({10, 20, 30, 40, 50, 60}),             // ascending
      Batch({10, 20, 20, 20, 30, 30, 50, 50}),     // ascending, duplicates
      Batch({7, 7, 7, 7}),                         // all equal
      Batch({70, 10, 20, 30, 40, 50, 60}),         // out of order at front
      Batch({10, 20, 30, 40, 50, 60, 5}),          // out of order at back
      Batch({10, 20, 30, 40, 50, 60, 30}),         // back duplicate
      Batch({50, 10, 90, 30, 30, 70, 10}),         // shuffled
  };
  const std::int64_t heads[] = {0, 9, 10, 20, 25, 30, 42, 60, 61, 1000};
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<IoSpan>& batch = batches[b];
    for (std::int64_t head : heads) {
      const auto expected = ReferenceElevatorOrder(head, batch);
      EXPECT_EQ(ScheduleOrder(head, batch), expected)
          << "batch " << b << " head " << head;
      // The allocation-free entry point writes the same order, and
      // overwrites whatever the caller's buffers held.
      std::vector<std::size_t> order(batch.size(), 99);
      std::vector<std::size_t> scratch(batch.size(), 77);
      ScheduleOrderInto(head, batch.data(), batch.size(), order.data(),
                        scratch.data());
      EXPECT_EQ(order, expected) << "batch " << b << " head " << head;
    }
  }
}

TEST(SchedulerTest, ElevatorOrderMatchesReferenceOnLargeBatches) {
  Rng rng(8192);
  for (bool sorted : {true, false}) {
    std::vector<IoSpan> batch;
    std::int64_t offset = 0;
    for (int i = 0; i < 8192; ++i) {
      // Small steps make duplicate offsets common.
      offset = sorted ? offset + rng.NextInt(0, 3) : rng.NextInt(0, 20000);
      batch.push_back({offset, 1 * kMB});
    }
    for (std::int64_t head : {std::int64_t{0}, batch[4096].offset,
                              std::int64_t{1} << 40}) {
      EXPECT_EQ(ScheduleOrder(head, batch),
                ReferenceElevatorOrder(head, batch));
    }
  }
}

}  // namespace
}  // namespace memstream::device
