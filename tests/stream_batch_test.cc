// The SoA playback/recording batches every server runs its streams in:
// the lazy buffer-level arithmetic, the QoS tallies QosCounters folds in
// through StreamView/RecordingView, and reuse of a batch after Resize().

#include "server/stream_batch.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "server/qos_counters.h"

namespace memstream::server {
namespace {

/// A batch holding one playback stream (index 0) at `bit_rate`.
PlaybackBatch Playback(BytesPerSecond bit_rate) {
  PlaybackBatch batch;
  batch.Resize(1);
  batch.Set(0, 1, bit_rate);
  return batch;
}

/// A batch holding one recording stream (index 0).
RecordingBatch Recording(BytesPerSecond bit_rate, Bytes staging_capacity) {
  RecordingBatch batch;
  batch.Resize(1);
  batch.Set(0, 1, bit_rate, staging_capacity);
  return batch;
}

TEST(SessionTest, NoConsumptionBeforePlayback) {
  PlaybackBatch s = Playback(1 * kMBps);
  s.Deposit(0, 0.0, 5 * kMB);
  EXPECT_DOUBLE_EQ(s.LevelAt(0, 10.0), 5 * kMB);
  EXPECT_EQ(s.underflow_events(0), 0);
}

TEST(SessionTest, DrainsAtBitRate) {
  PlaybackBatch s = Playback(1 * kMBps);
  s.Deposit(0, 0.0, 5 * kMB);
  s.StartPlayback(0, 0.0);
  EXPECT_DOUBLE_EQ(s.LevelAt(0, 2.0), 3 * kMB);
  EXPECT_DOUBLE_EQ(s.LevelAt(0, 5.0), 0.0);
  EXPECT_EQ(s.underflow_events(0), 0);  // hit zero exactly, no stall yet
}

TEST(SessionTest, UnderflowAccountsDryTime) {
  PlaybackBatch s = Playback(1 * kMBps);
  s.Deposit(0, 0.0, 2 * kMB);
  s.StartPlayback(0, 0.0);
  // Demand over [0, 5] is 5 MB against 2 MB: dry for 3 seconds.
  EXPECT_DOUBLE_EQ(s.LevelAt(0, 5.0), 0.0);
  EXPECT_EQ(s.underflow_events(0), 1);
  EXPECT_DOUBLE_EQ(s.underflow_time(0), 3.0);
}

TEST(SessionTest, SingleDryIntervalCountedOnce) {
  PlaybackBatch s = Playback(1 * kMBps);
  s.Deposit(0, 0.0, 1 * kMB);
  s.StartPlayback(0, 0.0);
  s.LevelAt(0, 3.0);
  s.LevelAt(0, 4.0);
  s.LevelAt(0, 5.0);
  EXPECT_EQ(s.underflow_events(0), 1);
  EXPECT_DOUBLE_EQ(s.underflow_time(0), 4.0);
}

TEST(SessionTest, DepositEndsDrySpell) {
  PlaybackBatch s = Playback(1 * kMBps);
  s.Deposit(0, 0.0, 1 * kMB);
  s.StartPlayback(0, 0.0);
  s.LevelAt(0, 3.0);             // dry since t=1
  s.Deposit(0, 3.0, 1 * kMB);    // refill
  EXPECT_DOUBLE_EQ(s.LevelAt(0, 3.5), 0.5 * kMB);
  s.LevelAt(0, 6.0);             // dry again since t=4
  EXPECT_EQ(s.underflow_events(0), 2);
  EXPECT_DOUBLE_EQ(s.underflow_time(0), 2.0 + 2.0);
}

TEST(SessionTest, SteadyStateJustInTimeNeverUnderflows) {
  // Deposits of exactly one second's worth every second.
  PlaybackBatch s = Playback(2 * kMBps);
  s.Deposit(0, 0.0, 2 * kMB);
  s.StartPlayback(0, 0.0);
  for (int t = 1; t <= 100; ++t) {
    s.Deposit(0, static_cast<double>(t), 2 * kMB);
  }
  s.LevelAt(0, 100.0);
  EXPECT_EQ(s.underflow_events(0), 0);
  EXPECT_DOUBLE_EQ(s.underflow_time(0), 0.0);
  EXPECT_DOUBLE_EQ(s.total_deposited(0), 202 * kMB);
}

TEST(SessionTest, PeakLevelTracksMaximum) {
  PlaybackBatch s = Playback(1 * kMBps);
  s.Deposit(0, 0.0, 3 * kMB);
  s.StartPlayback(0, 0.0);
  s.Deposit(0, 1.0, 3 * kMB);  // level 2+3 = 5 MB
  s.LevelAt(0, 4.0);
  EXPECT_DOUBLE_EQ(s.peak_level(0), 5 * kMB);
}

TEST(SessionTest, TimeNeverRunsBackwards) {
  PlaybackBatch s = Playback(1 * kMBps);
  s.Deposit(0, 5.0, 1 * kMB);
  // Stale queries do not disturb the state.
  EXPECT_DOUBLE_EQ(s.LevelAt(0, 3.0), 1 * kMB);
  EXPECT_DOUBLE_EQ(s.LevelAt(0, 5.0), 1 * kMB);
}

TEST(RecordingTest, FillsAtBitRate) {
  RecordingBatch r = Recording(2 * kMBps, 100 * kMB);
  r.StartRecording(0, 0.0);
  EXPECT_DOUBLE_EQ(r.LevelAt(0, 3.0), 6 * kMB);
  EXPECT_EQ(r.overflow_events(0), 0);
}

TEST(RecordingTest, NoFillBeforeStart) {
  RecordingBatch r = Recording(2 * kMBps, 100 * kMB);
  EXPECT_DOUBLE_EQ(r.LevelAt(0, 10.0), 0.0);
  r.StartRecording(0, 10.0);
  EXPECT_DOUBLE_EQ(r.LevelAt(0, 11.0), 2 * kMB);
}

TEST(RecordingTest, DrainRemovesAtMostLevel) {
  RecordingBatch r = Recording(1 * kMBps, 100 * kMB);
  r.StartRecording(0, 0.0);
  EXPECT_DOUBLE_EQ(r.Drain(0, 2.0, 5 * kMB), 2 * kMB);
  EXPECT_DOUBLE_EQ(r.LevelAt(0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(r.total_drained(0), 2 * kMB);
}

TEST(RecordingTest, OverflowAccountsTimeOverCapacity) {
  RecordingBatch r = Recording(1 * kMBps, 2 * kMB);
  r.StartRecording(0, 0.0);
  // Level crosses 2 MB at t = 2; by t = 5 it has been over for 3 s.
  r.LevelAt(0, 5.0);
  EXPECT_EQ(r.overflow_events(0), 1);
  EXPECT_DOUBLE_EQ(r.overflow_time(0), 3.0);
  // A big drain ends the overflow spell; a new one counts separately.
  r.Drain(0, 5.0, 5 * kMB);
  r.LevelAt(0, 8.0);  // refills to 3 MB: over since t = 7
  EXPECT_EQ(r.overflow_events(0), 2);
  EXPECT_DOUBLE_EQ(r.overflow_time(0), 4.0);
}

TEST(RecordingTest, SteadyStateDrainsStayBounded) {
  RecordingBatch r = Recording(1 * kMBps, 2.2 * kMB);
  r.StartRecording(0, 0.0);
  for (int t = 1; t <= 50; ++t) {
    r.Drain(0, static_cast<double>(t), 1 * kMB);
  }
  EXPECT_EQ(r.overflow_events(0), 0);
  EXPECT_LE(r.peak_level(0), 1.1 * kMB);
  EXPECT_DOUBLE_EQ(r.total_drained(0), 50 * kMB);
}

TEST(QosCountersTest, AbsorbPlaybackFoldsUnderflowTallies) {
  PlaybackBatch s = Playback(100);  // 100 B/s
  s.Deposit(0, 0, 50);
  s.StartPlayback(0, 0);
  s.LevelAt(0, 2.0);  // dry from t=0.5; 1.5s of underflow so far

  QosCounters qos;
  qos.AbsorbPlayback(s.view(0));
  EXPECT_EQ(qos.underflow_events, 1);
  EXPECT_DOUBLE_EQ(qos.underflow_time, 1.5);
  EXPECT_FALSE(qos.clean());
}

TEST(QosCountersTest, AbsorbRecordingFoldsOverflowTallies) {
  RecordingBatch r = Recording(100, 100);  // 1s of staging capacity
  r.StartRecording(0, 0);
  r.LevelAt(0, 3.0);  // over capacity from t=1: 2s over

  QosCounters qos;
  qos.AbsorbRecording(r.view(0));
  EXPECT_EQ(qos.overflow_events, 1);
  EXPECT_DOUBLE_EQ(qos.overflow_time, 2.0);
  EXPECT_FALSE(qos.clean());
}

TEST(QosCountersTest, PausedStreamsAccrueNoUnderflow) {
  // Degradation sheds a stream by pausing it: the viewer rebuffers, so
  // the shed window must not count as jitter.
  PlaybackBatch s = Playback(100);
  s.Deposit(0, 0, 100);
  s.StartPlayback(0, 0);
  s.PausePlayback(0, 0.5);  // 50 B left, still clean
  s.LevelAt(0, 20.0);       // a long shed window

  QosCounters qos;
  qos.AbsorbPlayback(s.view(0));
  EXPECT_EQ(qos.underflow_events, 0);
  EXPECT_DOUBLE_EQ(qos.underflow_time, 0.0);
  EXPECT_TRUE(qos.clean());

  // Re-admission resumes the clock; tallies start from the live state.
  s.Deposit(0, 20.0, 100);
  s.StartPlayback(0, 20.0);
  s.LevelAt(0, 21.0);
  qos = QosCounters();
  qos.AbsorbPlayback(s.view(0));
  EXPECT_EQ(qos.underflow_events, 0);
}

TEST(QosCountersTest, PauseEndsAnOpenDryExcursion) {
  // A stream that is dry when it gets shed: the event was already
  // counted once; pausing must close the excursion instead of letting
  // the shed window inflate underflow_time.
  PlaybackBatch s = Playback(100);
  s.Deposit(0, 0, 50);
  s.StartPlayback(0, 0);
  s.LevelAt(0, 1.0);  // dry since t=0.5
  s.PausePlayback(0, 1.0);
  s.LevelAt(0, 30.0);

  QosCounters qos;
  qos.AbsorbPlayback(s.view(0));
  EXPECT_EQ(qos.underflow_events, 1);
  EXPECT_DOUBLE_EQ(qos.underflow_time, 0.5);
}

// --- reuse after Resize() ---------------------------------------------
//
// Servers and the farm's shard workspaces Resize() one batch per run
// instead of building a new one, so a reused batch must carry nothing
// over from its last run.

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Names `n` playback streams and drives each through a dry excursion, a
/// refill, a pause and a resume.
void DrivePlayback(PlaybackBatch& batch, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = static_cast<double>(i + 1);
    batch.Set(i, static_cast<std::int64_t>(10 + i), 100 * scale);
    batch.Deposit(i, 0.0, 50 * scale);
    batch.StartPlayback(i, 0.0);
    batch.LevelAt(i, 2.0);  // dry from t=0.5
    batch.Deposit(i, 2.0, 300 * scale);
    batch.PausePlayback(i, 2.5);
    batch.StartPlayback(i, 3.0);
    batch.LevelAt(i, 10.0 + scale);  // dry again
  }
}

/// Names `n` recording streams and drives each over its staging capacity
/// and back.
void DriveRecording(RecordingBatch& batch, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = static_cast<double>(i + 1);
    batch.Set(i, static_cast<std::int64_t>(10 + i), 100 * scale,
              100 * scale);
    batch.StartRecording(i, 0.0);
    batch.LevelAt(i, 3.0);  // over capacity from t=1
    batch.Drain(i, 3.0, 250 * scale);
    batch.LevelAt(i, 4.0 + scale);
    batch.Drain(i, 6.0, 1e9);
  }
}

/// Every per-stream read of `batch`, as bits.
std::vector<std::uint64_t> Reads(const PlaybackBatch& batch) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.insert(out.end(),
               {static_cast<std::uint64_t>(batch.id(i)),
                Bits(batch.bit_rate(i)), batch.playing(i) ? 1u : 0u,
                Bits(batch.level(i)), Bits(batch.total_deposited(i)),
                Bits(batch.peak_level(i)),
                static_cast<std::uint64_t>(batch.underflow_events(i)),
                Bits(batch.underflow_time(i))});
  }
  return out;
}

/// Every per-stream read of `batch` but the lazily advanced level, as
/// bits.
std::vector<std::uint64_t> Reads(const RecordingBatch& batch) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.insert(out.end(),
               {static_cast<std::uint64_t>(batch.id(i)),
                Bits(batch.bit_rate(i)), batch.recording(i) ? 1u : 0u,
                Bits(batch.total_drained(i)), Bits(batch.peak_level(i)),
                static_cast<std::uint64_t>(batch.overflow_events(i)),
                Bits(batch.overflow_time(i))});
  }
  return out;
}

TEST(PlaybackBatchTest, ResizeAfterUseMatchesAFreshBatch) {
  PlaybackBatch used;
  used.Resize(4);
  DrivePlayback(used, 4);
  ASSERT_GT(used.underflow_events(3), 0);
  ASSERT_GT(used.underflow_time(3), 0);

  for (std::size_t n : {4u, 2u, 6u}) {
    PlaybackBatch reused = used;
    reused.Resize(n);
    ASSERT_EQ(reused.size(), n);
    EXPECT_EQ(Reads(reused), std::vector<std::uint64_t>(8 * n, 0))
        << "n " << n;
    DrivePlayback(reused, n);

    PlaybackBatch fresh;
    fresh.Resize(n);
    DrivePlayback(fresh, n);
    EXPECT_EQ(Reads(reused), Reads(fresh)) << "n " << n;
  }
}

TEST(RecordingBatchTest, ResizeAfterUseMatchesAFreshBatch) {
  RecordingBatch used;
  used.Resize(4);
  DriveRecording(used, 4);
  ASSERT_GT(used.overflow_events(3), 0);
  ASSERT_GT(used.overflow_time(3), 0);

  for (std::size_t n : {4u, 2u, 6u}) {
    RecordingBatch reused = used;
    reused.Resize(n);
    ASSERT_EQ(reused.size(), n);
    EXPECT_EQ(Reads(reused), std::vector<std::uint64_t>(7 * n, 0))
        << "n " << n;
    DriveRecording(reused, n);

    RecordingBatch fresh;
    fresh.Resize(n);
    DriveRecording(fresh, n);
    EXPECT_EQ(Reads(reused), Reads(fresh)) << "n " << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(reused.LevelAt(i, 20.0)), Bits(fresh.LevelAt(i, 20.0)))
          << "n " << n << " stream " << i;
    }
  }
}

}  // namespace
}  // namespace memstream::server
