// Unit tests of the per-stream lifecycle journal: slot registration,
// phase transitions, the bounded event buffer, headroom against the
// admitted envelope, the aggregate summary, and the stream.* gauges.

#include "obs/stream_journal.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace memstream::obs {
namespace {

TEST(StreamJournalTest, EnsureStreamIsGetOrCreate) {
  StreamJournal j;
  const std::size_t slot = j.EnsureStream(7, 1e6, 2e6, 0.0);
  EXPECT_EQ(j.EnsureStream(7, 9e9, 9e9, 5.0), slot);  // unchanged
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(j.SlotOf(7), static_cast<std::ptrdiff_t>(slot));
  EXPECT_EQ(j.SlotOf(8), -1);
  const StreamJournalEntry& e = j.entry(slot);
  EXPECT_EQ(e.stream_id, 7);
  EXPECT_DOUBLE_EQ(e.bit_rate, 1e6);
  EXPECT_DOUBLE_EQ(e.envelope_bytes, 2e6);
  ASSERT_EQ(e.events.size(), 1u);
  EXPECT_EQ(e.events[0].kind, StreamEventKind::kAdmitted);
}

TEST(StreamJournalTest, FirstIoMovesAdmittedToPlaying) {
  StreamJournal j;
  const std::size_t slot = j.EnsureStream(1, 1e6, 4e6, 0.0);
  EXPECT_EQ(j.entry(slot).phase, StreamPhase::kAdmitted);
  j.RecordIo(slot, 1.0, 1000, 3e6);
  j.RecordIo(slot, 2.0, 500, 1e6);
  const StreamJournalEntry& e = j.entry(slot);
  EXPECT_EQ(e.phase, StreamPhase::kPlaying);
  EXPECT_EQ(e.ios, 2);
  EXPECT_DOUBLE_EQ(e.bytes, 1500);
  EXPECT_DOUBLE_EQ(e.peak_level_bytes, 3e6);
  EXPECT_EQ(e.occupancy.TotalCount(), 2);
  ASSERT_EQ(e.events.size(), 2u);
  EXPECT_EQ(e.events[1].kind, StreamEventKind::kPlaying);
  EXPECT_DOUBLE_EQ(e.events[1].t, 1.0);
}

TEST(StreamJournalTest, ShedReadmitDepartLifecycle) {
  StreamJournal j;
  const std::size_t slot = j.EnsureStream(3, 1e6, 0, 0.0);
  j.RecordIo(slot, 0.5, 100, 50);
  j.MarkShed(slot, 2.0);
  EXPECT_EQ(j.entry(slot).phase, StreamPhase::kShed);
  j.MarkReadmitted(slot, 4.0);
  EXPECT_EQ(j.entry(slot).phase, StreamPhase::kPlaying);
  j.MarkDeparted(slot, 10.0);
  const StreamJournalEntry& e = j.entry(slot);
  EXPECT_EQ(e.phase, StreamPhase::kDeparted);
  EXPECT_EQ(e.sheds, 1);
  EXPECT_EQ(e.readmits, 1);
  ASSERT_EQ(e.events.size(), 5u);
  const StreamEventKind expect[] = {
      StreamEventKind::kAdmitted, StreamEventKind::kPlaying,
      StreamEventKind::kShed, StreamEventKind::kReadmitted,
      StreamEventKind::kDeparted};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(e.events[i].kind, expect[i]) << "event " << i;
  }
  // Departed is terminal: later marks are ignored.
  j.MarkShed(slot, 11.0);
  EXPECT_EQ(j.entry(slot).phase, StreamPhase::kDeparted);
  EXPECT_EQ(j.entry(slot).sheds, 1);
}

TEST(StreamJournalTest, DegradedCarriesDetail) {
  StreamJournal j;
  const std::size_t slot = j.EnsureStream(4, 1e6, 0, 0.0);
  j.MarkDegraded(slot, 1.0, 1);  // disk fallback
  const StreamJournalEntry& e = j.entry(slot);
  EXPECT_EQ(e.phase, StreamPhase::kDegraded);
  EXPECT_EQ(e.degrades, 1);
  ASSERT_EQ(e.events.size(), 2u);
  EXPECT_EQ(e.events[1].kind, StreamEventKind::kDegraded);
  EXPECT_DOUBLE_EQ(e.events[1].detail, 1);
}

TEST(StreamJournalTest, EventBufferIsBoundedAndKeepsEarlyEvents) {
  StreamJournalOptions options;
  options.events_per_stream = 3;
  StreamJournal j(options);
  const std::size_t slot = j.EnsureStream(1, 1e6, 0, 0.0);  // event 1
  j.MarkShed(slot, 1.0);                                    // event 2
  j.MarkReadmitted(slot, 2.0);                              // event 3: full
  j.MarkShed(slot, 3.0);
  j.MarkReadmitted(slot, 4.0);
  const StreamJournalEntry& e = j.entry(slot);
  ASSERT_EQ(e.events.size(), 3u);
  EXPECT_EQ(e.events[2].kind, StreamEventKind::kReadmitted);
  EXPECT_DOUBLE_EQ(e.events[2].t, 2.0);  // early events preserved verbatim
  EXPECT_EQ(e.events_dropped, 2);
  // Counters still track the dropped transitions.
  EXPECT_EQ(e.sheds, 2);
  EXPECT_EQ(e.readmits, 2);
}

TEST(StreamJournalTest, HeadroomAgainstEnvelope) {
  StreamJournal j;
  const std::size_t tight = j.EnsureStream(1, 1e6, 100.0, 0.0);
  j.RecordIo(tight, 1.0, 10, 80.0);
  EXPECT_NEAR(j.entry(tight).headroom(), 0.2, 1e-12);
  const std::size_t breached = j.EnsureStream(2, 1e6, 100.0, 0.0);
  j.RecordIo(breached, 1.0, 10, 110.0);
  EXPECT_LT(j.entry(breached).headroom(), 0.0);
  const std::size_t unknown = j.EnsureStream(3, 1e6, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(j.entry(unknown).headroom(), 1.0);
}

TEST(StreamJournalTest, FinalizeDepartsEveryRemainingStream) {
  StreamJournal j;
  const std::size_t a = j.EnsureStream(1, 1e6, 0, 0.0);
  const std::size_t b = j.EnsureStream(2, 1e6, 0, 0.0);
  j.MarkDeparted(a, 5.0);
  j.Finalize(30.0);
  EXPECT_EQ(j.entry(a).phase, StreamPhase::kDeparted);
  EXPECT_EQ(j.entry(b).phase, StreamPhase::kDeparted);
  // The early departure keeps its own timestamp.
  EXPECT_DOUBLE_EQ(j.entry(a).events.back().t, 5.0);
  EXPECT_DOUBLE_EQ(j.entry(b).events.back().t, 30.0);
}

TEST(StreamJournalTest, SummarizeCountsOutcomes) {
  StreamJournal j;
  const std::size_t a = j.EnsureStream(1, 1e6, 100.0, 0.0);
  const std::size_t b = j.EnsureStream(2, 1e6, 100.0, 0.0);
  const std::size_t c = j.EnsureStream(3, 1e6, 100.0, 0.0);
  j.RecordIo(a, 1.0, 10, 90.0);
  j.RecordUnderflows(a, 2.0, 3);
  j.MarkShed(b, 2.0);
  j.MarkReadmitted(b, 3.0);
  j.MarkDegraded(c, 4.0, 0);
  j.MarkShed(c, 5.0);  // still shed at the end
  j.MarkDeparted(a, 9.0);
  const StreamJournalSummary s = j.Summarize();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.departed, 1);
  EXPECT_EQ(s.shed, 2);
  EXPECT_EQ(s.still_shed, 1);
  EXPECT_EQ(s.readmitted, 1);
  EXPECT_EQ(s.degraded, 1);
  EXPECT_EQ(s.underflow_streams, 1);
  EXPECT_EQ(s.total_ios, 1);
  EXPECT_EQ(s.total_underflows, 3);
  EXPECT_NEAR(s.min_headroom, 1.0 - 90.0 / 100.0, 1e-12);
}

TEST(StreamJournalTest, DepartingShedStreamCountsAsStillShed) {
  // Departure records the end of the run, not a re-admission: a stream
  // shed and never re-admitted stays still-shed after it departs.
  StreamJournal j;
  const std::size_t a = j.EnsureStream(1, 1e6, 100.0, 0.0);
  const std::size_t b = j.EnsureStream(2, 1e6, 100.0, 0.0);
  j.MarkShed(a, 1.0);
  j.MarkShed(b, 1.0);
  j.MarkReadmitted(b, 2.0);
  j.Finalize(5.0);
  const StreamJournalSummary s = j.Summarize();
  EXPECT_EQ(s.departed, 2);
  EXPECT_EQ(s.shed, 2);
  EXPECT_EQ(s.still_shed, 1);
}

TEST(StreamJournalTest, PublishSummaryExportsGauges) {
  StreamJournal j;
  const std::size_t slot = j.EnsureStream(1, 1e6, 100.0, 0.0);
  j.MarkShed(slot, 1.0);
  MetricsRegistry metrics;
  j.PublishSummary(&metrics);
  EXPECT_DOUBLE_EQ(metrics.gauge("stream.count")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("stream.shed")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("stream.still_shed")->value(), 1.0);
  j.PublishSummary(nullptr);  // null sink is a no-op, not a crash
}

TEST(StreamJournalTest, NullTolerantHelpersIgnoreBadTargets) {
  JournalIo(nullptr, 0, 1.0, 10, 10);
  JournalUnderflows(nullptr, 0, 1.0, 1);
  StreamJournal j;
  const std::size_t slot = j.EnsureStream(1, 1e6, 0, 0.0);
  JournalIo(&j, -1, 1.0, 10, 10);        // unregistered stream
  JournalUnderflows(&j, -1, 1.0, 1);
  JournalUnderflows(&j, static_cast<std::ptrdiff_t>(slot), 1.0, 0);  // no-op
  EXPECT_EQ(j.entry(slot).ios, 0);
  EXPECT_EQ(j.entry(slot).underflows, 0);
  JournalIo(&j, static_cast<std::ptrdiff_t>(slot), 1.0, 10, 10);
  EXPECT_EQ(j.entry(slot).ios, 1);
}

}  // namespace
}  // namespace memstream::obs
