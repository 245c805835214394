// Earliest-Deadline-First streaming server: the competing class of
// real-time disk scheduling the paper cites (§6: Daigle & Strosnider;
// QPMS/time-cycle vs EDF). Instead of batching one IO per stream per
// cycle, the disk always services the stream whose playout buffer will
// run dry first (non-preemptive EDF on IO deadlines), skipping streams
// whose buffers are already full.
//
// EDF adapts naturally to heterogeneous loads but gives up the batch
// seek optimization: requests are ordered by deadline, not position, so
// the disk pays near-random seeks. The ablation bench quantifies the
// resulting throughput gap against the time-cycle/elevator server —
// the classical reason media servers standardized on cycle-based
// scheduling.

#ifndef MEMSTREAM_SERVER_EDF_SERVER_H_
#define MEMSTREAM_SERVER_EDF_SERVER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "device/disk.h"
#include "server/server_core.h"
#include "server/stream_batch.h"
#include "server/telemetry.h"
#include "sim/fifo_lane.h"

namespace memstream::server {

/// Knobs of the EDF server.
struct EdfServerConfig {
  /// Per-stream IO size in seconds of playback (the buffer holds up to
  /// 2x this, mirroring the double-buffered time-cycle server).
  Seconds io_playback = 1.0;
  bool deterministic = true;
  std::uint64_t seed = 42;
  /// Optional sinks. EDF has no cycles: register the auditor's streams
  /// with domain kNone (occupancy-only audit, bound 2x the IO size); the
  /// journal holds each stream under that 2x-IO cap; the "cycle_slack"
  /// SLO is fed from deadline outcomes and "underflow" per serviced IO.
  Sinks sinks;
};

/// Non-preemptive EDF server over one disk. Read streams only. It has no
/// cycles: its report carries disk busy time and utilization, the
/// deadline misses and the idle time.
class EdfStreamingServer final : public ServerCore {
 public:
  static Result<EdfStreamingServer> Create(
      device::DiskDrive* disk, std::vector<StreamSpec> streams,
      const EdfServerConfig& config);

  std::size_t num_streams() const { return play_.size(); }

 private:
  EdfStreamingServer(device::DiskDrive* disk,
                     std::vector<StreamSpec> streams,
                     const EdfServerConfig& config);

  Status StartRun(Seconds duration) override;
  void CloseRun() override;
  /// Starts the playback, then re-enters the service loop: a full
  /// pipeline may have gone idle waiting for consumption to begin.
  void StartPlayback(const PlaybackStart& s) override;

  /// Picks and services the next IO; its completion re-enters the loop
  /// (or a wake-up at the next useful instant when every buffer is full).
  void ServiceNext();

  /// The deadline of stream i: when its buffer runs dry.
  Seconds DeadlineOf(std::size_t i);

  /// One disk IO completion, queued on the completion lane for its done
  /// time.
  struct Completion {
    std::size_t stream = 0;
    Bytes bytes = 0;
  };
  /// The single place an IO completion takes effect, at its done time
  /// (the simulator clock): deposit, telemetry, its trace record, and the
  /// playback start of a stream that is not yet playing.
  void ApplyCompletion(const Completion& c);

  std::vector<StreamSpec> streams_;
  EdfServerConfig config_;
  std::vector<Bytes> play_cursor_;
  sim::FifoLane<Completion> completions_;
  bool busy_ = false;  ///< an IO is in flight on the disk
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_EDF_SERVER_H_
