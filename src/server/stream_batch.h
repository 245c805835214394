// Structure-of-arrays playback/recording state: the per-stream hot fields
// (buffer level, bit-rate, last-advance time, dry flag, jitter tallies)
// laid out as parallel arrays, so an IO cycle is one contiguous loop with
// no per-object indirection. The buffer level is piecewise linear, so it
// is advanced lazily at event times, with no per-byte work.
// stream_batch_test pins the arithmetic: dry and overflow excursions,
// pauses, and reuse after Resize().
//
// StreamView / RecordingView are cheap value handles onto one stream, so
// report code and tests read per-stream results without caring about the
// layout.

#ifndef MEMSTREAM_SERVER_STREAM_BATCH_H_
#define MEMSTREAM_SERVER_STREAM_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace memstream::server {

class PlaybackBatch;
class RecordingBatch;

/// Read-only handle onto one stream of a PlaybackBatch.
class StreamView {
 public:
  StreamView(const PlaybackBatch* batch, std::size_t index)
      : batch_(batch), index_(index) {}

  std::int64_t id() const;
  BytesPerSecond bit_rate() const;
  bool playing() const;
  Bytes total_deposited() const;
  Bytes peak_level() const;
  std::int64_t underflow_events() const;
  Seconds underflow_time() const;

 private:
  const PlaybackBatch* batch_;
  std::size_t index_;
};

/// Read-only handle onto one stream of a RecordingBatch.
class RecordingView {
 public:
  RecordingView(const RecordingBatch* batch, std::size_t index)
      : batch_(batch), index_(index) {}

  std::int64_t id() const;
  BytesPerSecond bit_rate() const;
  bool recording() const;
  Bytes total_drained() const;
  Bytes peak_level() const;
  std::int64_t overflow_events() const;
  Seconds overflow_time() const;

 private:
  const RecordingBatch* batch_;
  std::size_t index_;
};

/// A playout stream's jitter tallies.
struct UnderflowTally {
  std::int64_t events = 0;
  Seconds time = 0;
};

/// A deferred PlaybackBatch::StartPlayback: the first deposit of a stream
/// that is not yet playing queues one for max(done, cycle boundary).
struct PlaybackStart {
  std::size_t session = 0;
  Seconds start = 0;
};

/// SoA playback state for n streams, addressed by dense index.
class PlaybackBatch {
 public:
  /// Empties the batch and sizes every per-stream array for `n` idle,
  /// empty streams in one pass each, keeping the arrays' capacity; Set()
  /// then names each stream.
  void Resize(std::size_t n) {
    id_.assign(n, 0);
    bit_rate_.assign(n, 0);
    playing_.assign(n, 0);
    dry_.assign(n, 0);
    last_update_.assign(n, 0);
    level_.assign(n, 0);
    total_deposited_.assign(n, 0);
    peak_level_.assign(n, 0);
    underflow_events_.assign(n, 0);
    underflow_time_.assign(n, 0);
  }

  /// Stream `i` (of the Resize()d batch) is `id`, playing at `bit_rate`.
  void Set(std::size_t i, std::int64_t id, BytesPerSecond bit_rate) {
    id_[i] = id;
    bit_rate_[i] = bit_rate;
  }

  std::size_t size() const { return id_.size(); }
  bool empty() const { return id_.empty(); }

  // --- hot-path updates ---

  void Advance(std::size_t i, Seconds now) {
    if (now <= last_update_[i]) return;
    const Seconds dt = now - last_update_[i];
    last_update_[i] = now;
    if (playing_[i] == 0) return;
    Play(bit_rate_[i], dt, level_[i], dry_[i], underflow_events_[i],
         underflow_time_[i]);
  }

  /// Stream `i`'s jitter tallies as LevelAt(i, now) would leave them,
  /// bit for bit, without advancing the stream.
  UnderflowTally UnderflowsAt(std::size_t i, Seconds now) const {
    UnderflowTally t{underflow_events_[i], underflow_time_[i]};
    if (now <= last_update_[i] || playing_[i] == 0) return t;
    Bytes level = level_[i];
    std::uint8_t dry = dry_[i];
    Play(bit_rate_[i], now - last_update_[i], level, dry, t.events, t.time);
    return t;
  }

  void Deposit(std::size_t i, Seconds now, Bytes bytes) {
    Advance(i, now);
    level_[i] += bytes;
    total_deposited_[i] += bytes;
    peak_level_[i] = std::max(peak_level_[i], level_[i]);
    if (bytes > 0) dry_[i] = 0;
  }

  void StartPlayback(std::size_t i, Seconds now) {
    Advance(i, now);
    playing_[i] = 1;
  }

  void PausePlayback(std::size_t i, Seconds now) {
    Advance(i, now);
    playing_[i] = 0;
    dry_[i] = 0;  // a pause ends any dry excursion; shed time is
                  // accounted separately by the fault layer
  }

  Bytes LevelAt(std::size_t i, Seconds now) {
    Advance(i, now);
    return level_[i];
  }

  /// Takes back every playback start past `now`. Valid while nothing
  /// but such starts moved a stream's clock past `now`; the batch is then
  /// as if they were never made.
  void DropStartsAfter(Seconds now) {
    for (std::size_t i = 0; i < size(); ++i) {
      if (last_update_[i] > now) playing_[i] = 0;
    }
  }

  // --- per-stream reads ---

  std::int64_t id(std::size_t i) const { return id_[i]; }
  BytesPerSecond bit_rate(std::size_t i) const { return bit_rate_[i]; }
  bool playing(std::size_t i) const { return playing_[i] != 0; }
  Bytes level(std::size_t i) const { return level_[i]; }
  Bytes total_deposited(std::size_t i) const { return total_deposited_[i]; }
  Bytes peak_level(std::size_t i) const { return peak_level_[i]; }
  std::int64_t underflow_events(std::size_t i) const {
    return underflow_events_[i];
  }
  Seconds underflow_time(std::size_t i) const { return underflow_time_[i]; }

  StreamView view(std::size_t i) const { return StreamView(this, i); }
  /// All streams as views (cold path: reports, tests, examples).
  std::vector<StreamView> views() const {
    std::vector<StreamView> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) out.emplace_back(this, i);
    return out;
  }

 private:
  /// Plays `dt` seconds at `rate` out of a buffer at `level`; a dry
  /// spell adds to the jitter tallies.
  static void Play(BytesPerSecond rate, Seconds dt, Bytes& level,
                   std::uint8_t& dry, std::int64_t& underflow_events,
                   Seconds& underflow_time) {
    const Bytes demand = rate * dt;
    if (demand <= level) {
      level -= demand;
      return;
    }
    // The buffer ran dry partway through the interval.
    const Seconds dry_for = (demand - level) / rate;
    level = 0;
    underflow_time += dry_for;
    if (dry == 0) {
      ++underflow_events;
      dry = 1;
    }
  }

  std::vector<std::int64_t> id_;
  std::vector<BytesPerSecond> bit_rate_;
  std::vector<std::uint8_t> playing_;
  std::vector<std::uint8_t> dry_;
  std::vector<Seconds> last_update_;
  std::vector<Bytes> level_;
  std::vector<Bytes> total_deposited_;
  std::vector<Bytes> peak_level_;
  std::vector<std::int64_t> underflow_events_;
  std::vector<Seconds> underflow_time_;
};

/// SoA recording (write-stream) state: the mirror image of PlaybackBatch.
/// An encoder fills each staging buffer continuously at the stream's
/// bit-rate and each IO drains one chunk; time spent over the staging
/// capacity (data that would have been dropped) is the write-side
/// analogue of underflow.
class RecordingBatch {
 public:
  /// Empties the batch and sizes every per-stream array for `n` idle,
  /// empty streams, keeping the arrays' capacity; Set() names each.
  void Resize(std::size_t n) {
    id_.assign(n, 0);
    bit_rate_.assign(n, 0);
    capacity_.assign(n, 0);
    recording_.assign(n, 0);
    over_.assign(n, 0);
    last_update_.assign(n, 0);
    level_.assign(n, 0);
    total_drained_.assign(n, 0);
    peak_level_.assign(n, 0);
    overflow_events_.assign(n, 0);
    overflow_time_.assign(n, 0);
  }

  /// Stream `i` is `id`, recording at `bit_rate` into a staging buffer
  /// of `staging_capacity`.
  void Set(std::size_t i, std::int64_t id, BytesPerSecond bit_rate,
           Bytes staging_capacity) {
    id_[i] = id;
    bit_rate_[i] = bit_rate;
    capacity_[i] = staging_capacity;
  }

  std::size_t size() const { return id_.size(); }
  bool empty() const { return id_.empty(); }

  void Advance(std::size_t i, Seconds now) {
    if (now <= last_update_[i]) return;
    const Seconds dt = now - last_update_[i];
    if (recording_[i] != 0) {
      const Bytes before = level_[i];
      level_[i] += bit_rate_[i] * dt;
      peak_level_[i] = std::max(peak_level_[i], level_[i]);
      if (level_[i] > capacity_[i]) {
        // Accrue only the portion of the interval spent over capacity.
        const Seconds over_for =
            before >= capacity_[i]
                ? dt
                : (level_[i] - capacity_[i]) / bit_rate_[i];
        overflow_time_[i] += over_for;
        if (over_[i] == 0) {
          ++overflow_events_[i];
          over_[i] = 1;
        }
      }
    }
    last_update_[i] = now;
  }

  void StartRecording(std::size_t i, Seconds now) {
    Advance(i, now);
    recording_[i] = 1;
  }

  Bytes Drain(std::size_t i, Seconds now, Bytes bytes) {
    Advance(i, now);
    const Bytes drained = std::min(bytes, level_[i]);
    level_[i] -= drained;
    total_drained_[i] += drained;
    if (level_[i] <= capacity_[i]) over_[i] = 0;
    return drained;
  }

  Bytes LevelAt(std::size_t i, Seconds now) {
    Advance(i, now);
    return level_[i];
  }

  std::int64_t id(std::size_t i) const { return id_[i]; }
  BytesPerSecond bit_rate(std::size_t i) const { return bit_rate_[i]; }
  bool recording(std::size_t i) const { return recording_[i] != 0; }
  Bytes total_drained(std::size_t i) const { return total_drained_[i]; }
  Bytes peak_level(std::size_t i) const { return peak_level_[i]; }
  std::int64_t overflow_events(std::size_t i) const {
    return overflow_events_[i];
  }
  Seconds overflow_time(std::size_t i) const { return overflow_time_[i]; }

  RecordingView view(std::size_t i) const { return RecordingView(this, i); }
  std::vector<RecordingView> views() const {
    std::vector<RecordingView> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) out.emplace_back(this, i);
    return out;
  }

 private:
  std::vector<std::int64_t> id_;
  std::vector<BytesPerSecond> bit_rate_;
  std::vector<Bytes> capacity_;
  std::vector<std::uint8_t> recording_;
  std::vector<std::uint8_t> over_;
  std::vector<Seconds> last_update_;
  std::vector<Bytes> level_;
  std::vector<Bytes> total_drained_;
  std::vector<Bytes> peak_level_;
  std::vector<std::int64_t> overflow_events_;
  std::vector<Seconds> overflow_time_;
};

inline std::int64_t StreamView::id() const { return batch_->id(index_); }
inline BytesPerSecond StreamView::bit_rate() const {
  return batch_->bit_rate(index_);
}
inline bool StreamView::playing() const { return batch_->playing(index_); }
inline Bytes StreamView::total_deposited() const {
  return batch_->total_deposited(index_);
}
inline Bytes StreamView::peak_level() const {
  return batch_->peak_level(index_);
}
inline std::int64_t StreamView::underflow_events() const {
  return batch_->underflow_events(index_);
}
inline Seconds StreamView::underflow_time() const {
  return batch_->underflow_time(index_);
}

inline std::int64_t RecordingView::id() const { return batch_->id(index_); }
inline BytesPerSecond RecordingView::bit_rate() const {
  return batch_->bit_rate(index_);
}
inline bool RecordingView::recording() const {
  return batch_->recording(index_);
}
inline Bytes RecordingView::total_drained() const {
  return batch_->total_drained(index_);
}
inline Bytes RecordingView::peak_level() const {
  return batch_->peak_level(index_);
}
inline std::int64_t RecordingView::overflow_events() const {
  return batch_->overflow_events(index_);
}
inline Seconds RecordingView::overflow_time() const {
  return batch_->overflow_time(index_);
}

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_STREAM_BATCH_H_
