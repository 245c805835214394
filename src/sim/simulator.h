// The simulation engine: a clock, the event queue, and any number of
// typed completion lanes (sim/fifo_lane.h). Components schedule
// callbacks relative to the current time or push plain-data records to a
// lane; Run() dispatches whichever pending item has the earliest
// (time, seq) until nothing is left, a deadline passes, or Stop() is
// called.
//
// Run() keeps cheap always-on telemetry (queue-depth high-water mark,
// wall-clock event throughput) that callers can export into an
// obs::MetricsRegistry after the run; the engine itself stays free of
// heavier instrumentation so the hot loop costs nothing extra.

#ifndef MEMSTREAM_SIM_SIMULATOR_H_
#define MEMSTREAM_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "sim/event_queue.h"

namespace memstream::sim {

class Simulator;

/// The type-erased part of a completion lane that Simulator::Run()
/// drives. The lane publishes its front item's (time, seq) key into the
/// simulator's key array and fires that item on request. FifoLane<T>
/// (sim/fifo_lane.h) is the only implementation.
class LaneBase {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 protected:
  LaneBase() = default;
  LaneBase(LaneBase&&) = default;
  LaneBase& operator=(LaneBase&&) = default;
  ~LaneBase() = default;

  /// Registers with `sim` (once); the lane's key slot starts empty.
  void Attach(Simulator* sim);
  /// Publishes the front item's key, or marks the lane empty.
  inline void PublishFront(Seconds when, std::int64_t seq);
  inline void PublishEmpty();

  Simulator* sim_ = nullptr;
  std::size_t slot_ = 0;  ///< index into the simulator's lane arrays
  std::size_t size_ = 0;

 private:
  friend class Simulator;
  /// Pops the front item and hands it to the lane's handler.
  virtual void FireFront() = 0;
  /// Drops every pending item (Simulator::Reset()).
  virtual void Drop() = 0;
};

/// Single-threaded discrete-event simulator.
class Simulator {
 public:
  /// Current simulated time (seconds since Run() start).
  Seconds Now() const { return now_; }

  /// Schedules `cb` to run `delay` seconds from now. Negative delays are
  /// rejected (events cannot fire in the past).
  Status Schedule(Seconds delay, EventCallback cb);

  /// Schedules `cb` at the absolute time `when` (>= Now()).
  Status ScheduleAt(Seconds when, EventCallback cb);

  /// Processes events and lane items in (time, seq) order until none is
  /// left or the next would fire after `until`. Returns the number
  /// processed. Re-entrant Run() calls are rejected.
  Result<std::int64_t> Run(
      Seconds until = std::numeric_limits<Seconds>::infinity());

  /// Makes the current Run() return after the in-flight event completes.
  void Stop() { stopped_ = true; }

  /// Events and lane items dispatched so far.
  std::int64_t events_processed() const { return events_processed_; }
  bool running() const { return running_; }

  /// Largest pending count (heap events plus lane items) observed inside
  /// any Run() so far.
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  /// Pending heap events plus lane items right now.
  std::size_t queue_depth() const { return queue_.size() + lane_items_; }
  /// Wall-clock duration of the most recent Run() call.
  Seconds last_run_wall_seconds() const { return last_run_wall_seconds_; }
  /// Events per wall-clock second over the most recent Run() call.
  double last_run_events_per_sec() const;

  /// Clears pending events and lane items (lanes stay registered) and
  /// rewinds the clock to zero.
  void Reset();

 private:
  friend class LaneBase;
  template <typename T>
  friend class FifoLane;

  /// Front (time, seq) of one lane; an empty lane holds the largest key,
  /// so the scan in Run() needs no emptiness test.
  struct LaneKey {
    Seconds when;
    std::int64_t seq;
  };
  static constexpr LaneKey kEmptyLane = {
      std::numeric_limits<Seconds>::infinity(),
      std::numeric_limits<std::int64_t>::max()};

  EventQueue queue_;
  std::vector<LaneBase*> lanes_;
  std::vector<LaneKey> lane_keys_;  ///< parallel to lanes_
  std::size_t lane_items_ = 0;      ///< pending items across all lanes
  Seconds now_ = 0;
  bool running_ = false;
  bool stopped_ = false;
  std::int64_t events_processed_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::int64_t last_run_events_ = 0;
  Seconds last_run_wall_seconds_ = 0;
};

inline void LaneBase::PublishFront(Seconds when, std::int64_t seq) {
  sim_->lane_keys_[slot_] = {when, seq};
}

inline void LaneBase::PublishEmpty() {
  sim_->lane_keys_[slot_] = Simulator::kEmptyLane;
}

}  // namespace memstream::sim

#endif  // MEMSTREAM_SIM_SIMULATOR_H_
