#include "sim/trace.h"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace memstream::sim {
namespace {

TEST(TraceTest, CountAndFilterByKind) {
  TraceLog log;
  log.Append({0.0, TraceKind::kCycleStart, "disk", -1, 0, ""});
  log.Append({0.1, TraceKind::kIoCompleted, "disk", 1, 100, ""});
  log.Append({0.2, TraceKind::kIoCompleted, "disk", 2, 100, ""});
  log.Append({0.3, TraceKind::kUnderflow, "stream", 2, 0, ""});
  EXPECT_EQ(log.Count(TraceKind::kIoCompleted), 2);
  EXPECT_EQ(log.Count(TraceKind::kUnderflow), 1);
  EXPECT_EQ(log.Count(TraceKind::kOverflow), 0);
  const auto ios = log.Filter(TraceKind::kIoCompleted);
  ASSERT_EQ(ios.size(), 2u);
  EXPECT_EQ(ios[0].stream_id, 1);
  EXPECT_EQ(ios[1].stream_id, 2);
}

TEST(TraceTest, ClearEmpties) {
  TraceLog log;
  log.Append({0, TraceKind::kNote, "x", -1, 0, ""});
  log.Clear();
  EXPECT_TRUE(log.records().empty());
}

TEST(TraceTest, UnboundedByDefault) {
  TraceLog log;
  EXPECT_EQ(log.capacity(), 0u);
  for (int i = 0; i < 1000; ++i) {
    log.Append({static_cast<double>(i), TraceKind::kNote, "x", -1, 0, ""});
  }
  EXPECT_EQ(log.records().size(), 1000u);
  EXPECT_EQ(log.dropped_records(), 0);
}

TEST(TraceTest, BoundedLogEvictsOldestAndCountsDrops) {
  TraceLog log(3);
  for (int i = 0; i < 7; ++i) {
    log.Append({static_cast<double>(i), TraceKind::kNote, "x", -1, 0, ""});
  }
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.dropped_records(), 4);
  // The newest three survive, still in time order.
  EXPECT_DOUBLE_EQ(log.records()[0].time, 4.0);
  EXPECT_DOUBLE_EQ(log.records()[1].time, 5.0);
  EXPECT_DOUBLE_EQ(log.records()[2].time, 6.0);
}

TEST(TraceTest, ClearResetsDropCounter) {
  TraceLog log(1);
  log.Append({0, TraceKind::kNote, "x", -1, 0, ""});
  log.Append({1, TraceKind::kNote, "x", -1, 0, ""});
  EXPECT_EQ(log.dropped_records(), 1);
  log.Clear();
  EXPECT_TRUE(log.records().empty());
  EXPECT_EQ(log.dropped_records(), 0);
}

TEST(TraceTest, RecordsCarryOptionalDuration) {
  TraceLog log;
  log.Append({1.0, TraceKind::kIoCompleted, "disk", 0, 64.0, "", 0.25});
  log.Append({2.0, TraceKind::kNote, "disk", -1, 0, ""});
  EXPECT_DOUBLE_EQ(log.records()[0].duration, 0.25);
  EXPECT_DOUBLE_EQ(log.records()[1].duration, 0.0);  // instant by default
}

TEST(TraceTest, WrappedRingReadsOldestFirst) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Append(static_cast<double>(i), TraceKind::kNote, "note", -1, 0, "");
  }
  auto times = [&log] {
    std::vector<double> out;
    for (const auto& r : log.records()) out.push_back(r.time);
    return out;
  };
  EXPECT_EQ(times(), (std::vector<double>{6, 7, 8, 9}));
  // Wrapping again keeps the order and appends after the newest.
  log.Append(10.0, TraceKind::kNote, "note", -1, 0, "");
  log.Append(11.0, TraceKind::kNote, "note", -1, 0, "");
  log.Append(12.0, TraceKind::kNote, "note", -1, 0, "");
  EXPECT_EQ(times(), (std::vector<double>{9, 10, 11, 12}));
  EXPECT_EQ(log.dropped_records(), 9);
  EXPECT_DOUBLE_EQ(log.records().front().time, 9.0);
  EXPECT_DOUBLE_EQ(log.records().back().time, 12.0);
}

TEST(TraceTest, OverwrittenSlotsTakeTheNewStrings) {
  TraceLog log(2);
  log.Append(0, TraceKind::kNote, "a much longer actor name", 1, 0,
             "a detail well past the small-string buffer");
  log.Append(1, TraceKind::kNote, "b", 2, 0, "");
  const std::string actor = "c";
  log.Append(2, TraceKind::kIoCompleted, std::string_view(actor), 3, 4.0,
             "short", 0.5);
  ASSERT_EQ(log.records().size(), 2u);
  const TraceRecord& r = log.records()[1];
  EXPECT_EQ(r.actor, "c");
  EXPECT_EQ(r.detail, "short");
  EXPECT_EQ(r.stream_id, 3);
  EXPECT_DOUBLE_EQ(r.bytes, 4.0);
  EXPECT_DOUBLE_EQ(r.duration, 0.5);
  EXPECT_EQ(r.kind, TraceKind::kIoCompleted);
  EXPECT_EQ(log.Count(TraceKind::kNote), 1);
}

TEST(TraceTest, AppendingARecordOfTheSameLogIsSafe) {
  TraceLog unbounded;
  unbounded.Append(1, TraceKind::kNote, "an actor past the small buffer", 1,
                   0, "a detail past the small-string buffer too");
  for (int i = 0; i < 40; ++i) unbounded.Append(unbounded.records().back());
  EXPECT_EQ(unbounded.records().size(), 41u);
  EXPECT_EQ(unbounded.records().back().actor,
            "an actor past the small buffer");

  TraceLog ring(3);
  for (int i = 0; i < 3; ++i) {
    std::string actor = "x";
    actor += std::to_string(i);
    ring.Append(i, TraceKind::kNote, actor, i, 0, "");
  }
  ring.Append(ring.records().front());  // overwrites the slot it reads
  EXPECT_EQ(ring.records().back().actor, "x0");
  EXPECT_EQ(ring.records().front().actor, "x1");
}

}  // namespace
}  // namespace memstream::sim
