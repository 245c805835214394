// The skeleton every simulated server shares: one report, the close of a
// time cycle on either side (disk or MEMS bank), the disk side's
// elevator-ordered batch, and Run() with its epilogue. A server derives
// from ServerCore, keeps its own stream state and completion records,
// and implements StartRun() (bind its lanes, schedule its first cycles)
// plus, where it has them, its own end-of-run counters in CloseRun().

#ifndef MEMSTREAM_SERVER_SERVER_CORE_H_
#define MEMSTREAM_SERVER_SERVER_CORE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/status.h"
#include "device/disk.h"
#include "device/disk_scheduler.h"
#include "device/mems_device.h"
#include "obs/metrics.h"
#include "server/qos_counters.h"
#include "server/stream_batch.h"
#include "server/telemetry.h"
#include "sim/fifo_lane.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::server {

/// Trace actor of a striped bank's lock-step cycle.
inline constexpr std::string_view kStripedActor = "mems-striped";

/// Direction of a stream relative to the disk.
enum class StreamDirection {
  kRead,   ///< playback: disk -> DRAM -> client
  kWrite,  ///< recording: encoder -> DRAM staging -> disk
};

/// A stream to be serviced: sequential access to `extent` bytes placed
/// at `disk_offset` (wrapping, so any simulation horizon works).
struct StreamSpec {
  std::int64_t id = 0;
  BytesPerSecond bit_rate = 0;
  Bytes disk_offset = 0;
  Bytes extent = 0;
  StreamDirection direction = StreamDirection::kRead;
};

/// InvalidArgument or OutOfRange unless every stream has a positive rate
/// and an extent on `disk` that holds at least one IO of `io_seconds` of
/// playback (the cursor wrap needs a whole IO inside the extent).
Status CheckDiskStreams(const device::DiskDrive& disk,
                        const std::vector<StreamSpec>& streams,
                        Seconds io_seconds);

/// Cycle statistics of one side of a server: its disk, or its MEMS bank.
struct SideStats {
  std::int64_t cycles = 0;    ///< MEMS side: summed across devices
  std::int64_t overruns = 0;  ///< cycles whose busy time exceeded the cycle
  Seconds busy = 0;           ///< MEMS side: summed across devices
  Seconds max_busy = 0;       ///< the busiest single cycle
  /// Disk: busy / horizon, clamped to 1 (the last cycle may end past the
  /// horizon). MEMS: mean across devices.
  double utilization = 0;

  bool operator==(const SideStats&) const = default;
};

/// Post-run statistics of every simulated server.
struct ServerReport {
  SideStats disk;  ///< EDF has no cycles: only busy and utilization
  SideStats mems;  ///< zero without a MEMS bank
  std::int64_t ios_completed = 0;
  QosCounters qos;      ///< underflows/overflows/violations
  Bytes peak_dram = 0;  ///< sum of per-session peak levels
  Seconds horizon = 0;  ///< simulated duration
  // Counters only one server has.
  std::int64_t best_effort_ios = 0;  ///< direct: slack-filling IOs serviced
  Bytes best_effort_bytes = 0;
  std::int64_t deadline_misses = 0;  ///< EDF: IOs done after their deadline
  Seconds idle_time = 0;             ///< EDF: disk idle, every buffer full
  std::int64_t starved_reads = 0;    ///< pipeline: DRAM reads not resident
  Bytes peak_mems_occupancy = 0;     ///< pipeline: max per-device bytes

  bool operator==(const ServerReport&) const = default;
};

/// One side of a time-cycle server under one metric prefix
/// (`server.direct`, `server.pipeline.disk`, `server.cache.mems`, ...):
/// its stats, per-device busy time and cycle metrics.
struct CycleSide {
  enum class Kind : std::uint8_t { kDisk, kMems };

  /// Starts the side afresh for `devices` devices and registers
  /// <prefix>.cycles and <prefix>.cycle_slack_ms (±cycle, 40 buckets).
  /// With `scan` false its cycles feed the cycle-slack SLO only, without
  /// the underflow scan. A side is inactive until Init().
  void Init(Kind side_kind, const std::string& metric_prefix, Seconds cycle,
            obs::MetricsRegistry* metrics, std::size_t devices = 1,
            bool scan = true);
  bool active() const { return !device_busy.empty(); }

  Kind kind = Kind::kDisk;
  bool scan_underflows = true;
  std::string prefix;
  SideStats stats;
  std::vector<Seconds> device_busy;
  obs::Counter* cycles_metric = nullptr;
  obs::HistogramMetric* slack_hist = nullptr;
};

/// One disk cycle's IOs in arena scratch: at most one per stream.
struct DiskBatch {
  device::IoSpan* ios = nullptr;
  /// Stream index of each IO; null when the batch holds one IO for every
  /// stream in stream order.
  std::size_t* streams = nullptr;
  std::size_t size = 0;

  std::size_t stream(std::size_t pos) const {
    return streams != nullptr ? streams[pos] : pos;
  }

  /// Queues stream `i`'s next IO of `bytes` at `*cursor` within the
  /// extent [base, base + extent), wrapping to the extent's start when
  /// the IO would run past its end, so long runs keep streaming.
  void Add(std::size_t i, Bytes base, Bytes extent, Bytes bytes,
           Bytes* cursor) {
    if (*cursor + bytes > extent) *cursor = 0;
    ios[size] = device::IoSpan{static_cast<std::int64_t>(base + *cursor),
                               bytes};
    if (streams != nullptr) streams[size] = i;
    ++size;
    *cursor += bytes;
  }
};

/// The state and Run() every simulated server shares.
class ServerCore {
 public:
  /// Simulates `duration` seconds of service and fills the report. May
  /// be called once per reset.
  Status Run(Seconds duration);

  const ServerReport& report() const { return report_; }
  /// Playout session of the i-th read stream.
  StreamView session(std::size_t i) const { return play_.view(i); }

 protected:
  /// `kind` names the metrics (server.<kind>.*), `context` the server in
  /// telemetry warnings. ResetCore() binds the devices and sinks.
  ServerCore(const char* kind, const char* context)
      : kind_(kind), context_(context) {}

  /// Makes the core a fresh, not yet run one over `disk` (null for an
  /// all-cached cache server), `bank` (empty without MEMS devices),
  /// `sinks` and `num_streams` streams, keeping every buffer's capacity.
  /// The server then sizes its playback batch and registers its streams
  /// with the telemetry. The devices' own state is the caller's.
  void ResetCore(device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
                 const Sinks& sinks, std::size_t num_streams,
                 std::uint64_t seed, StreamTelemetryOptions options = {});

  /// Binds the server's lanes and schedules its first cycles (the fault
  /// plan is scheduled after them).
  virtual Status StartRun(Seconds duration) = 0;
  /// The server's own end of run, after the playback sessions were
  /// absorbed into the report and before the telemetry closes: its
  /// counters, gauges and report records.
  virtual void CloseRun() {}
  /// A device-scoped fault event of the plan, for servers with a bank.
  virtual void ApplyFaultEvent(const fault::FaultEvent&) {}
  /// A queued playback start coming due.
  virtual void StartPlayback(const PlaybackStart& s) {
    if (!play_.playing(s.session)) play_.StartPlayback(s.session, s.start);
  }

  /// Traces the start of a cycle on `actor`: "disk cycle <n>" on the
  /// disk side, "mems<device> cycle" on the MEMS side, "striped cycle"
  /// for the lock-step bank (device -1).
  void TraceCycleStart(const CycleSide& side, Seconds t0,
                       std::string_view actor, std::int64_t device = 0);

  /// Closes a cycle that began at `t0` and kept `side` busy for `busy`
  /// out of its length `cycle` on `device` (-1: every bank device in
  /// lock-step): its stats and metrics, the auditor's cycle hook, the
  /// cycle-slack and underflow SLOs (`shed` streams burn the
  /// availability budget), and, when traced, the cycle-end record `end`
  /// queued on `lane` behind the cycle's completions. Returns the next
  /// cycle's start: the nominal boundary, or right after an overrun.
  template <typename C>
  Seconds CloseCycle(CycleSide& side, Seconds t0, Seconds busy,
                     Seconds cycle, sim::FifoLane<C>& lane, C end,
                     std::int64_t device = 0, std::int64_t shed = 0) {
    AccountCycle(side, t0, busy, cycle, device, shed);
    if (trace_ != nullptr && busy > 0) {
      end.service = busy;
      lane.Push(t0 + busy, end);
    }
    return t0 + std::max(cycle, busy);
  }
  /// CloseCycle() up to the cycle-end record.
  void AccountCycle(CycleSide& side, Seconds t0, Seconds busy, Seconds cycle,
                std::int64_t device, std::int64_t shed);

  /// A batch of up to `capacity` IOs in the recycled arena scratch, so
  /// the steady-state cycle performs zero heap allocations. A `sparse`
  /// batch may skip streams and records each IO's stream index.
  DiskBatch NewDiskBatch(std::size_t capacity, bool sparse = false);

  /// Services `batch` in C-LOOK order from the last head position.
  /// Each IO counts toward the completed IOs and the audit, and is
  /// handed back as `done(stream, bytes, done_time, service)`. Returns
  /// the busy time.
  template <typename Done>
  Seconds ServiceDiskBatch(const DiskBatch& batch, Seconds t0,
                           bool deterministic, Done&& done) {
    const std::size_t n = batch.size;
    auto* order = arena_.Alloc<std::size_t>(n);
    auto* scratch = arena_.Alloc<std::size_t>(n);
    device::ScheduleOrderInto(last_head_offset_, batch.ios, n, order,
                              scratch);
    Seconds busy = 0;
    for (std::size_t oi = 0; oi < n; ++oi) {
      const std::size_t pos = order[oi];
      const device::IoSpan& io = batch.ios[pos];
      auto st = disk_->Service(io, deterministic ? nullptr : &rng_);
      if (!st.ok()) continue;  // unreachable: extents validated in Create
      const Seconds service = st.value();
      busy += service;
      last_head_offset_ = io.offset;
      ++report_.ios_completed;
      const std::size_t stream = batch.stream(pos);
      obs::RecordIo(sinks_.auditor, stream, io.bytes);
      done(stream, io.bytes, t0 + busy, service);
    }
    return busy;
  }

  /// Services `span` on every bank device in lock-step into `elapsed`,
  /// the slowest device's time. False when a device failed (it moves
  /// nothing).
  bool ServiceLockStep(const device::IoSpan& span, Seconds* elapsed);

  device::DiskDrive* disk_ = nullptr;
  std::vector<device::MemsDevice> bank_;
  Sinks sinks_;
  sim::TraceLog* trace_ = nullptr;
  std::string disk_name_;  ///< trace actors, resolved once
  std::vector<std::string> bank_names_;
  sim::Simulator sim_;
  Rng rng_;
  PlaybackBatch play_;  ///< SoA playback state of the read streams
  StreamTelemetry telemetry_;
  CycleArena arena_;  ///< per-cycle scratch
  CycleSide disk_side_;
  CycleSide mems_side_;
  sim::FifoLane<PlaybackStart> starts_;
  ServerReport report_;
  std::int64_t last_head_offset_ = 0;
  Seconds horizon_ = 0;  ///< Run() duration

 private:
  const char* kind_;
  const char* context_;
  bool ran_ = false;
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_SERVER_CORE_H_
