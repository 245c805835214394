// Event tracing: components append typed records (IO issued/completed,
// cycle boundaries, underflows) that tests and the validation bench
// inspect after a run. Tracing is off unless a TraceLog is attached.
//
// A TraceLog may be bounded: with a capacity set it becomes a ring
// buffer that overwrites the oldest record in place and counts the
// evictions, so a long sim_duration cannot exhaust memory. Records carry an optional
// `duration` so completion-style events double as spans.

#ifndef MEMSTREAM_SIM_TRACE_H_
#define MEMSTREAM_SIM_TRACE_H_

#include <cstdint>
#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace memstream::sim {

/// Kind of traced event.
enum class TraceKind {
  kCycleStart,    ///< an IO cycle began on some device
  kCycleEnd,      ///< an IO cycle finished (duration = busy time)
  kIoIssued,      ///< an IO was handed to a device
  kIoCompleted,   ///< a device finished an IO (duration = service time)
  kUnderflow,     ///< a stream's playout buffer ran dry
  kOverflow,      ///< a buffer exceeded its capacity
  kBufferLevel,   ///< per-stream buffer occupancy sample (bytes = level)
  kNote,          ///< free-form annotation
  kFaultStart,    ///< an injected fault became active (actor = component)
  kFaultEnd,      ///< a fault cleared / was repaired (duration = window)
};

/// One trace record.
struct TraceRecord {
  Seconds time = 0;
  TraceKind kind = TraceKind::kNote;
  std::string actor;    ///< component name ("disk", "mems0", "stream 3")
  std::int64_t stream_id = -1;  ///< owning stream, when applicable
  Bytes bytes = 0;      ///< transfer size or buffer level, when applicable
  std::string detail;   ///< free-form context
  Seconds duration = 0;  ///< span length ending at `time` (0 = instant)
};

/// Record sink with simple filters for post-run assertions. Unbounded by
/// default; constructed with a capacity, it is a ring that overwrites the
/// oldest record in place, so a warm bounded log appends without heap
/// traffic.
class TraceLog {
 public:
  /// Read-only view of the retained records, oldest first.
  class Records {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = TraceRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = const TraceRecord*;
      using reference = const TraceRecord&;

      Iterator(const Records* view, std::size_t i) : view_(view), i_(i) {}
      reference operator*() const { return (*view_)[i_]; }
      pointer operator->() const { return &(*view_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const Iterator& o) const { return i_ == o.i_; }
      bool operator!=(const Iterator& o) const { return i_ != o.i_; }

     private:
      const Records* view_;
      std::size_t i_;
    };

    explicit Records(const TraceLog* log) : log_(log) {}
    std::size_t size() const { return log_->ring_.size(); }
    bool empty() const { return log_->ring_.empty(); }
    const TraceRecord& operator[](std::size_t i) const {
      const std::size_t n = log_->ring_.size();
      const std::size_t j = log_->head_ + i;
      return log_->ring_[j < n ? j : j - n];
    }
    const TraceRecord& front() const { return (*this)[0]; }
    const TraceRecord& back() const { return (*this)[size() - 1]; }
    Iterator begin() const { return Iterator(this, 0); }
    Iterator end() const { return Iterator(this, size()); }

   private:
    const TraceLog* log_;
  };

  TraceLog() = default;
  /// A log that retains at most `capacity` records (0 = unbounded).
  explicit TraceLog(std::size_t capacity) : capacity_(capacity) {}

  /// Takes `record` by value, so appending a record read from this log
  /// stays valid when the append grows or overwrites the ring.
  void Append(TraceRecord record) {
    Append(record.time, record.kind, record.actor, record.stream_id,
           record.bytes, record.detail, record.duration);
  }

  /// Appends one record, copying `actor` and `detail` into the slot's
  /// existing string storage (no allocation once a bounded ring is warm).
  void Append(Seconds time, TraceKind kind, std::string_view actor,
              std::int64_t stream_id, Bytes bytes, std::string_view detail,
              Seconds duration = 0) {
    TraceRecord& slot = NextSlot();
    slot.time = time;
    slot.kind = kind;
    CopyInto(slot.actor, actor);
    slot.stream_id = stream_id;
    slot.bytes = bytes;
    CopyInto(slot.detail, detail);
    slot.duration = duration;
  }

  /// The retained records, oldest first. The view reads the live log.
  Records records() const { return Records(this); }

  std::size_t capacity() const { return capacity_; }

  /// Records evicted by the ring buffer since the last Clear().
  std::int64_t dropped_records() const { return dropped_; }

  /// Number of records of the given kind.
  std::int64_t Count(TraceKind kind) const;

  /// Records of one kind, in time order (they are appended in time order
  /// because the simulator is single-threaded).
  std::vector<TraceRecord> Filter(TraceKind kind) const;

  void Clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  /// String capacity reserved in each new slot of a bounded ring, so
  /// overwrites with the usual actor/detail lengths reuse it.
  static constexpr std::size_t kSlotChars = 31;

  /// Overwrites `to` with `from`, in its own storage while that is large
  /// enough. `from` may view `to`: it then fits, so `to` neither grows
  /// nor reallocates before the bytes move, and they move with memmove.
  /// (std::string::assign would do the same, but GCC 12 at -O3 reports
  /// -Wrestrict false positives on the memcpy it inlines from it.)
  static void CopyInto(std::string& to, std::string_view from) {
    const std::size_t n = from.size();
    if (n > to.capacity()) {
      to = std::string(from);  // too long to view `to`
      return;
    }
    if (n > to.size()) to.resize(n);
    std::char_traits<char>::move(to.data(), from.data(), n);
    to.resize(n);
  }

  /// The slot the next record goes into: a new one while below capacity,
  /// else the oldest (evicted) one.
  TraceRecord& NextSlot() {
    if (capacity_ == 0 || ring_.size() < capacity_) {
      TraceRecord& slot = ring_.emplace_back();
      if (capacity_ > 0) {
        slot.actor.reserve(kSlotChars);
        slot.detail.reserve(kSlotChars);
      }
      return slot;
    }
    TraceRecord& slot = ring_[head_];
    if (++head_ == ring_.size()) head_ = 0;
    ++dropped_;
    return slot;
  }

  /// Records in ring order; `head_` indexes the oldest, and is non-zero
  /// only while a bounded ring is full.
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;
  std::size_t capacity_ = 0;  ///< 0 = unbounded
  std::int64_t dropped_ = 0;
};

}  // namespace memstream::sim

#endif  // MEMSTREAM_SIM_TRACE_H_
