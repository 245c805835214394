// Structure-of-arrays playback/recording state: the per-stream hot fields
// StreamSession kept behind one object each (buffer level, bit-rate,
// last-advance time, dry flag, jitter tallies) laid out as parallel
// arrays, so an IO cycle is one contiguous loop with no per-object
// indirection. The update arithmetic is copied verbatim from
// stream_session.cc — batch and session trajectories are bit-identical
// (asserted by stream_batch_test), which is what keeps the refactored
// servers' CSV output byte-identical to the seed engine.
//
// StreamView / RecordingView are cheap value handles with the same
// accessor names as StreamSession / RecordingSession, so report code and
// tests read per-stream results without caring about the layout.

#ifndef MEMSTREAM_SERVER_STREAM_BATCH_H_
#define MEMSTREAM_SERVER_STREAM_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace memstream::server {

class PlaybackBatch;
class RecordingBatch;

/// Read-only handle onto one stream of a PlaybackBatch. Accessor-name
/// compatible with StreamSession.
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

/// A deferred PlaybackBatch::StartPlayback: the first deposit of a stream
/// that is not yet playing queues one for max(done, cycle boundary).
struct PlaybackStart {
  std::size_t session = 0;
  Seconds start = 0;
};

/// SoA playback state for n streams, addressed by dense index.
class PlaybackBatch {
 public:
  /// Registers a stream; returns its dense index.
  std::size_t Add(std::int64_t id, BytesPerSecond bit_rate) {
    const std::size_t i = id_.size();
    id_.push_back(id);
    bit_rate_.push_back(bit_rate);
    playing_.push_back(0);
    dry_.push_back(0);
    last_update_.push_back(0);
    level_.push_back(0);
    total_deposited_.push_back(0);
    peak_level_.push_back(0);
    underflow_events_.push_back(0);
    underflow_time_.push_back(0);
    return i;
  }

  std::size_t size() const { return id_.size(); }
  bool empty() const { return id_.empty(); }

  // --- hot-path updates (arithmetic identical to StreamSession) ---

  void Advance(std::size_t i, Seconds now) {
    if (now <= last_update_[i]) return;
    const Seconds dt = now - last_update_[i];
    last_update_[i] = now;
    if (playing_[i] == 0) return;

    const Bytes demand = bit_rate_[i] * dt;
    if (demand <= level_[i]) {
      level_[i] -= demand;
      return;
    }
    // The buffer ran dry partway through the interval.
    const Seconds dry_for = (demand - level_[i]) / bit_rate_[i];
    level_[i] = 0;
    underflow_time_[i] += dry_for;
    if (dry_[i] == 0) {
      ++underflow_events_[i];
      dry_[i] = 1;
    }
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

/// SoA recording (write-stream) state: the mirror image of PlaybackBatch,
/// arithmetic identical to RecordingSession.
class RecordingBatch {
 public:
  std::size_t Add(std::int64_t id, BytesPerSecond bit_rate,
                  Bytes staging_capacity) {
    const std::size_t i = id_.size();
    id_.push_back(id);
    bit_rate_.push_back(bit_rate);
    capacity_.push_back(staging_capacity);
    recording_.push_back(0);
    over_.push_back(0);
    last_update_.push_back(0);
    level_.push_back(0);
    total_drained_.push_back(0);
    peak_level_.push_back(0);
    overflow_events_.push_back(0);
    overflow_time_.push_back(0);
    return i;
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
