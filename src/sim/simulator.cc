#include "sim/simulator.h"

#include <chrono>
#include <utility>

#include "common/profiler.h"

namespace memstream::sim {

Status Simulator::Schedule(Seconds delay, EventCallback cb) {
  if (delay < 0) return Status::InvalidArgument("negative delay");
  queue_.Push(now_ + delay, std::move(cb));
  return Status::OK();
}

Status Simulator::ScheduleAt(Seconds when, EventCallback cb) {
  if (when < now_) return Status::InvalidArgument("event in the past");
  queue_.Push(when, std::move(cb));
  return Status::OK();
}

void LaneBase::Attach(Simulator* sim) {
  if (sim_ == sim) return;
  sim_ = sim;
  slot_ = sim->lanes_.size();
  sim->lanes_.push_back(this);
  sim->lane_keys_.push_back(Simulator::kEmptyLane);
}

Result<std::int64_t> Simulator::Run(Seconds until) {
  if (running_) return Status::FailedPrecondition("Run() is not re-entrant");
  running_ = true;
  stopped_ = false;
  const auto wall_start = std::chrono::steady_clock::now();
  std::int64_t processed = 0;
  PROF_SCOPE("sim.run");
  while (!stopped_) {
    // The earliest (time, seq) across the heap and every lane fires next.
    LaneBase* lane = nullptr;
    LaneKey best = kEmptyLane;
    if (lane_items_ > 0) {
      std::size_t best_slot = 0;
      for (std::size_t i = 0; i < lane_keys_.size(); ++i) {
        const LaneKey k = lane_keys_[i];
        if (k.when < best.when || (k.when == best.when && k.seq < best.seq)) {
          best = k;
          best_slot = i;
        }
      }
      lane = lanes_[best_slot];
      if (!queue_.empty() &&
          (queue_.NextTime() < best.when ||
           (queue_.NextTime() == best.when && queue_.NextSeq() < best.seq))) {
        lane = nullptr;
      }
    }
    if (lane == nullptr && queue_.empty()) break;
    const Seconds next = lane != nullptr ? best.when : queue_.NextTime();
    if (next > until) break;
    const std::size_t depth = queue_.size() + lane_items_;
    if (depth > max_queue_depth_) max_queue_depth_ = depth;
    PROF_SCOPE("sim.event.dispatch");
    if (lane != nullptr) {
      // A lane pop is a ring-index bump, not a heap sift, so it has no
      // sim.queue.pop region of its own.
      now_ = next;
      lane->FireFront();
    } else {
      Seconds when = 0;
      EventCallback cb = [&] {
        PROF_SCOPE("sim.queue.pop");
        return queue_.Pop(&when);
      }();
      now_ = when;
      cb();
    }
    ++processed;
    ++events_processed_;
  }
  // The clock advances to the deadline even if no event lies exactly on
  // it, so repeated bounded Run() calls observe monotonic time.
  if (until != std::numeric_limits<Seconds>::infinity() && !stopped_ &&
      now_ < until) {
    now_ = until;
  }
  last_run_events_ = processed;
  last_run_wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  running_ = false;
  return processed;
}

double Simulator::last_run_events_per_sec() const {
  if (last_run_wall_seconds_ <= 0) return 0;
  return static_cast<double>(last_run_events_) / last_run_wall_seconds_;
}

void Simulator::Reset() {
  queue_.Clear();
  for (LaneBase* lane : lanes_) lane->Drop();
  lane_keys_.assign(lanes_.size(), kEmptyLane);
  lane_items_ = 0;
  now_ = 0;
  running_ = false;
  stopped_ = false;
  events_processed_ = 0;
  max_queue_depth_ = 0;
  last_run_events_ = 0;
  last_run_wall_seconds_ = 0;
}

}  // namespace memstream::sim
