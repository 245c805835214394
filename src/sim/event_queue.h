// Discrete-event core: a time-ordered event queue with stable FIFO
// ordering among simultaneous events. Deterministic replay matters as
// much as raw speed, so ties break by insertion sequence; the heap is a
// 4-ary min-heap on a flat vector (shallower than a binary heap, and
// sift operations move entries instead of copying them), and the payload
// is a small-buffer MoveOnlyFunction, so steady-state push/pop performs
// zero heap allocations for captures up to 48 bytes.

#ifndef MEMSTREAM_SIM_EVENT_QUEUE_H_
#define MEMSTREAM_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/move_only_function.h"
#include "common/units.h"

namespace memstream::sim {

/// Event payload: an arbitrary move-only callback. Lambdas with captures
/// up to MoveOnlyFunction::kInlineCapacity bytes are stored inline.
using EventCallback = MoveOnlyFunction<void()>;

/// Priority queue of (time, sequence, callback) ordered by time, breaking
/// ties by insertion order.
class EventQueue {
 public:
  /// Enqueues `cb` to fire at absolute time `when`. Returns the event id.
  std::int64_t Push(Seconds when, EventCallback cb);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; undefined when empty.
  Seconds NextTime() const { return heap_.front().when; }
  /// Sequence number of the earliest pending event; undefined when empty.
  std::int64_t NextSeq() const { return heap_.front().seq; }

  /// Consumes one sequence number without enqueuing anything, for items
  /// ordered against this queue from elsewhere (sim::FifoLane).
  std::int64_t TakeSeq() { return next_seq_++; }

  /// Removes and returns the earliest event's callback, storing its time
  /// in `when`.
  EventCallback Pop(Seconds* when);

  /// Drops all pending events. Safe to call from inside a callback that
  /// Pop() just returned (the entry was already removed from the heap).
  void Clear();

 private:
  struct Entry {
    Seconds when;
    std::int64_t seq;
    EventCallback cb;

    bool Before(const Entry& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };

  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  static constexpr std::size_t kArity = 4;

  std::vector<Entry> heap_;
  std::int64_t next_seq_ = 0;
};

}  // namespace memstream::sim

#endif  // MEMSTREAM_SIM_EVENT_QUEUE_H_
