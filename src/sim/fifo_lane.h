// Typed completion lanes: flat FIFOs of plain-data records that the
// Simulator dispatches alongside its event heap.
//
// A server's completions within one device cycle are produced in
// non-decreasing time order, so they need no heap, no type-erased
// callback, and no heap-allocated capture: a lane stores the record
// itself in a ring and hands it to one bound handler when it comes due.
// Every push takes its sequence number from the EventQueue's counter,
// and Simulator::Run() always dispatches the earliest (time, seq) across
// the heap and every lane. Replacing a ScheduleAt closure with a lane
// push made at the same moment therefore leaves the dispatch order — and
// with it every trace record, events_processed() and max_queue_depth() —
// unchanged.
//
// A push earlier than the lane's tail (a cycle loop restarted while its
// previous cycle's completions are still pending, or playback starts
// from devices whose cycles are out of phase) cannot join the FIFO; it
// spills into the event heap as a closure over the record, under the
// same (time, seq) key, so ordering still holds. Steady-state pushes and
// pops allocate nothing once the ring has reached its high-water mark.

#ifndef MEMSTREAM_SIM_FIFO_LANE_H_
#define MEMSTREAM_SIM_FIFO_LANE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/move_only_function.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace memstream::sim {

/// A FIFO of `T` records fired through one handler. `T` is plain data;
/// the handler runs with the Simulator's clock at the record's time.
template <typename T>
class FifoLane final : public LaneBase {
 public:
  using Handler = MoveOnlyFunction<void(const T&)>;

  /// Registers the lane with `sim` and sets its handler. Bind once the
  /// lane and whatever the handler captures have reached their final
  /// address (e.g. in a server's Run(), not in its constructor).
  void Bind(Simulator* sim, Handler handler) {
    handler_ = std::move(handler);
    Attach(sim);
  }

  /// Enqueues `item` to fire at absolute time `when`. An unbound lane
  /// and a time earlier than Now() are rejected.
  Status Push(Seconds when, const T& item) {
    if (sim_ == nullptr || when < sim_->now_ ||
        (size_ > 0 && when < tail_when_)) [[unlikely]] {
      return PushSlow(when, item);
    }
    if (size_ == capacity_) Grow();
    const std::int64_t seq = sim_->queue_.TakeSeq();
    ring_[(head_ + size_) & (capacity_ - 1)] = Slot{when, seq, item};
    if (size_ == 0) PublishFront(when, seq);
    tail_when_ = when;
    ++size_;
    ++sim_->lane_items_;
    return Status::OK();
  }

 private:
  /// Rejections and spills, kept out of line so the common push stays a
  /// few stores.
  [[gnu::noinline]] Status PushSlow(Seconds when, const T& item) {
    if (sim_ == nullptr) {
      return Status::FailedPrecondition("lane is not bound");
    }
    if (when < sim_->now_) return Status::InvalidArgument("event in the past");
    // Behind the tail: the heap orders it under the same (time, seq) key.
    sim_->queue_.Push(when, [this, item] { handler_(item); });
    return Status::OK();
  }

  struct Slot {
    Seconds when = 0;
    std::int64_t seq = 0;
    T item{};
  };

  void FireFront() override {
    // Copy out before the handler runs: it may push to this lane.
    const T item = ring_[head_].item;
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    --sim_->lane_items_;
    if (size_ > 0) {
      PublishFront(ring_[head_].when, ring_[head_].seq);
    } else {
      PublishEmpty();
    }
    handler_(item);
  }

  void Drop() override {
    head_ = 0;
    size_ = 0;
  }

  /// Doubles the ring (power-of-two capacity) and unwraps it.
  void Grow() {
    std::vector<Slot> bigger(std::max<std::size_t>(16, capacity_ * 2));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & (capacity_ - 1)];
    }
    ring_ = std::move(bigger);
    capacity_ = ring_.size();
    head_ = 0;
  }

  std::vector<Slot> ring_;
  std::size_t capacity_ = 0;  ///< ring_.size(), a power of two
  std::size_t head_ = 0;
  Seconds tail_when_ = 0;
  Handler handler_;
};

}  // namespace memstream::sim

#endif  // MEMSTREAM_SIM_FIFO_LANE_H_
