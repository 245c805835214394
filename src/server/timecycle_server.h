// Direct disk <-> DRAM streaming server under time-cycle IO scheduling
// (the paper's baseline, Theorem 1): in every cycle of length T the disk
// performs exactly one IO of B̄_i * T bytes per stream, reordered by the
// elevator. Read streams deposit into playout sessions (underflow =
// jitter); write streams — the §3.1 extension — drain encoder staging
// buffers (overflow = dropped capture). Executing this schedule in the
// discrete-event simulator validates the analytical sizing: cycles must
// not overrun, no session may underflow, no staging buffer may overflow.

#ifndef MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_
#define MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "device/disk.h"
#include "obs/timeline.h"
#include "server/server_core.h"
#include "server/stream_batch.h"
#include "server/telemetry.h"
#include "sim/fifo_lane.h"

namespace memstream::server {

/// Knobs of the direct server.
struct DirectServerConfig {
  Seconds cycle = 1.0;  ///< the IO cycle T (from model::IoCycleLength)
  /// §3.1.2: "Spare bandwidth, if available, can be used for
  /// non-real-time traffic." When > 0, cycle slack left after the
  /// real-time batch is filled with best-effort IOs of this size at
  /// random positions, admitted only while a worst-case-latency IO still
  /// fits before the cycle boundary (so real-time streams are never put
  /// at risk).
  Bytes best_effort_io = 0;
  /// Deterministic mode charges the expected rotational delay; otherwise
  /// the delay is sampled per IO from `seed`.
  bool deterministic = true;
  std::uint64_t seed = 42;
  /// Optional sinks. Register the auditor's streams in spec order, read
  /// streams domain kDisk. The journal holds read streams under the
  /// Theorem-1 2*B*T envelope and write streams under their staging
  /// allocation. A fault plan is only observed, as there is no MEMS
  /// bank.
  Sinks sinks;
};

/// The baseline server. Create() and Reset() validate the stream set
/// against the disk capacity; Run() executes the schedule and fills the
/// report, for one horizon or several.
class DirectStreamingServer final : public ServerCore {
 public:
  /// A server with no streams: Reset() gives it some before Run().
  DirectStreamingServer() : ServerCore("direct", "timecycle server") {}

  static Result<DirectStreamingServer> Create(
      device::DiskDrive* disk, const std::vector<StreamSpec>& streams,
      const DirectServerConfig& config);

  /// Makes this server what Create(disk, streams, config) returns, in
  /// place: every per-stream array keeps its capacity, so a server
  /// reused for no more streams than it has held allocates nothing for
  /// them. The server must not be moved once it has run. On error the
  /// server is unchanged.
  Status Reset(device::DiskDrive* disk, const std::vector<StreamSpec>& streams,
               const DirectServerConfig& config);

  /// Sessions of the read (play) and write (record) streams, each in
  /// spec order; session(i) is the i-th read stream's.
  std::vector<StreamView> play_sessions() const { return play_.views(); }
  std::vector<RecordingView> record_sessions() const {
    return record_.views();
  }
  std::size_t num_streams() const { return streams_.size(); }

  using ServerCore::Run;
  /// Runs once, to the last of `horizons` (ascending, the first > 0),
  /// and reports every horizon L as a separate Run(L) would: report(h)
  /// equals, bit for bit, report() after a Run(horizons[h]); with
  /// `sessions`, session(h, i) likewise equals session(i). Run(duration)
  /// is the one-horizon case. A shorter horizon's report is cut inside
  /// the one pass, from the per-stream state as it stood at the horizon,
  /// so more than one horizon takes no sink but an auditor; the
  /// auditor's own state then describes the last horizon.
  Status Run(std::span<const Seconds> horizons, bool sessions = false);

  using ServerCore::report;
  using ServerCore::session;
  /// The report of horizons[h] of the last run (h = 0 after Run(duration)).
  const ServerReport& report(std::size_t h) const {
    return h < num_cuts_ ? cuts_[h].report : report_;
  }
  /// Session of horizons[h]'s i-th read stream; a shorter horizon keeps
  /// its sessions only in a run with `sessions`.
  StreamView session(std::size_t h, std::size_t i) const {
    return h < num_cuts_ ? cuts_[h].play.view(i) : play_.view(i);
  }

  /// Sizes the state of a run over up to `horizons` horizons of the
  /// current stream set, with or without `sessions`, so that run
  /// allocates nothing for it.
  void ReserveHorizons(std::size_t horizons, bool sessions);

 private:
  Status StartRun(Seconds duration) override;
  void CloseRun() override;
  void RunCycle(Seconds deadline);
  /// Fills the slack after the real-time batch with best-effort IOs and
  /// returns the cycle's busy time with them.
  Seconds FillBestEffort(Seconds busy);

  /// One disk IO completion (or, when traced, the cycle-end marker),
  /// queued on the completion lane for its done time.
  struct Completion {
    enum Kind : std::uint8_t { kIo, kCycleEnd };
    Kind kind = kIo;
    std::size_t stream = 0;  ///< spec index
    Bytes bytes = 0;
    Seconds service = 0;     ///< IO service time; cycle busy for kCycleEnd
    Seconds boundary = 0;    ///< playback may start from here (reads)
  };
  /// The single place an IO completion takes effect: buffer deposit or
  /// staging drain at `done`, telemetry, and its trace records.
  void ApplyCompletion(Seconds done, const Completion& c);

  /// A horizon short of the run's last.
  struct HorizonCut {
    Seconds horizon = 0;
    /// The streams' part of the report (qos tallies, peak_dram) and the
    /// auditor's DRAM-level violations, both taken at the cut.
    ServerReport streams;
    std::int64_t level_violations = 0;
    RecordingBatch record;  ///< scratch: the write streams at the cut
    PlaybackBatch play;     ///< the sessions at the horizon, if kept
    ServerReport report;    ///< complete from the cycle that reached it
  };
  /// An inline completion done past cut_at_: cuts every horizon before
  /// `done`. True when the completion applies (done <= the last horizon).
  bool CutBefore(Seconds done);
  /// Takes the streams' part of the next horizon's report.
  void TakeCut();
  /// After a cycle's close, with the next cycle due at `next`: cuts the
  /// horizons that cycle does not reach and completes the report of
  /// every cut horizon.
  void CloseCuts(Seconds next);

  std::vector<StreamSpec> streams_;
  DirectServerConfig config_;
  RecordingBatch record_;  ///< SoA state of the write streams
  /// Per stream: index into play_ or record_.
  std::vector<std::size_t> session_index_;
  std::vector<Bytes> play_cursor_;  ///< per-stream offset within extent
  /// Completions apply inline in the cycle loop instead of through the
  /// lanes (untraced runs; see StartRun()).
  bool inline_ = false;
  /// Inline completions done by this time apply at once; a later one
  /// first cuts the horizons before it.
  Seconds cut_at_ = 0;
  /// The horizons before the run's last, cuts_[0, num_cuts_); the
  /// vector keeps its capacity (and each cut's) across runs.
  std::vector<HorizonCut> cuts_;
  std::size_t num_cuts_ = 0;
  std::size_t next_cut_ = 0;    ///< cuts_[next_cut_] is not yet cut
  std::size_t closed_cuts_ = 0; ///< cuts whose report is complete
  bool keep_sessions_ = false;
  sim::FifoLane<Completion> completions_;
  obs::TimelineSeries* disk_util_series_ = nullptr;
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_
