// Observability plumbing shared by the simulated servers: the bundle of
// optional sinks a server feeds (Sinks), and the per-stream telemetry
// every server keeps against them (StreamTelemetry): journal slots,
// occupancy gauges, timeline series, the standard SLOs, and the
// underflow-delta bookkeeping. Each server keeps its own metric names,
// device series and trace records. Hooks are null-guarded like the obs::
// free helpers, and the per-deposit hook is inline and allocation-free.

#ifndef MEMSTREAM_SERVER_TELEMETRY_H_
#define MEMSTREAM_SERVER_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/qos_auditor.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "obs/timeline.h"
#include "server/qos_counters.h"
#include "server/stream_batch.h"
#include "sim/trace.h"

namespace memstream::server {

/// The optional sinks a simulated server feeds. None is owned; each must
/// outlive the server. Null (the default) costs one pointer test per
/// hook site.
struct Sinks {
  /// Cycle-slack histograms, per-stream occupancy, run summary gauges.
  obs::MetricsRegistry* metrics = nullptr;
  /// Online QoS auditor: register the streams in spec order and Seal()
  /// before Run(); the server drives the per-cycle hooks.
  obs::QosAuditor* auditor = nullptr;
  /// Per-stream DRAM occupancy series, plus the server's device series.
  obs::TimelineRecorder* timelines = nullptr;
  /// Fault plan: MEMS servers apply its device failures and repairs to
  /// their bank; the direct and EDF servers only observe it.
  fault::FaultInjector* faults = nullptr;
  /// Lifecycle journal: streams self-register at Create under the
  /// server's DRAM envelope and depart when Run() ends.
  obs::StreamJournal* journal = nullptr;
  /// Fed the standard "underflow" and "cycle_slack" SLOs (and
  /// "availability" by the cache server).
  obs::SloMonitor* slo = nullptr;
  /// Cycle spans, IO completions, buffer levels.
  sim::TraceLog* trace = nullptr;

  /// InvalidArgument when an attached auditor's stream registration does
  /// not match a server of `num_streams` streams.
  Status CheckAuditor(std::size_t num_streams) const;
};

struct StreamTelemetryOptions {
  bool occupancy_gauges = true;   ///< stream.<id><suffix> gauges
  bool availability_slo = false;  ///< the standard "availability" SLO
};

/// The per-stream telemetry of one server, indexed like its stream specs
/// (which is also the auditor's stream index).
class StreamTelemetry {
 public:
  static constexpr std::ptrdiff_t kNoSession = -1;

  /// Binds the telemetry to `sinks` for `num_streams` streams, as a fresh
  /// one, keeping its capacity: registers the standard SLOs and, when a
  /// sink keeps per-stream state (journal, occupancy gauges, timelines,
  /// SLOs), sizes one record per stream. Set() then registers each
  /// stream; without such a sink no record is kept at all.
  void Reset(const Sinks& sinks, std::size_t num_streams,
             StreamTelemetryOptions options = {});

  /// Registers stream `i` (cold path, in stream order): its journal slot
  /// at t = 0 under `envelope`, and its stream.<id><suffix> occupancy
  /// gauge and timeline series. `session` is the PlaybackBatch index
  /// whose underflows the stream reports, or kNoSession for a recording.
  void Set(std::size_t i, std::int64_t id, BytesPerSecond bit_rate,
           Bytes envelope, std::ptrdiff_t session,
           const char* suffix = ".dram_bytes");

  /// A deposit (or drain) of `bytes` left stream `i`'s buffer at `level`
  /// at time `t`: audited DRAM level, occupancy gauge, series point and
  /// journaled IO.
  void Deposit(std::size_t i, Seconds t, Bytes bytes, Bytes level) const {
    obs::RecordDramLevel(sinks_.auditor, i, t, level);
    if (streams_.empty()) return;
    const Stream& s = streams_[i];
    obs::Update(s.gauge, t, level);
    obs::Record(s.series, t, level);
    obs::JournalIo(sinks_.journal, s.jslot, t, bytes, level);
  }

  /// The cycle-slack SLO outcome of a cycle ending at `now`.
  void CycleSlack(Seconds now, bool overrun) const {
    obs::SloRecord(slo_slack_, now, overrun ? 0 : 1, overrun ? 1 : 0);
  }

  /// A cycle ending at `now`: its slack outcome, then the underflow
  /// scan. The playback batch counts underflow events cumulatively, so
  /// the delta against what was already seen attributes new events to
  /// this cycle without touching the deposit path. Feeds the journal and
  /// one underflow-SLO sample per playing stream, plus an availability
  /// sample in which `shed` streams burn the budget.
  void EndCycle(Seconds now, bool overrun, const PlaybackBatch& play,
                std::int64_t shed = 0);
  /// The same scan for stream `i` alone, as one underflow-SLO sample
  /// (the EDF server has no cycles and scans each deposit).
  void ScanStreamUnderflows(std::size_t i, Seconds now,
                            const PlaybackBatch& play);

  /// Journal transitions of stream `i` under degradation.
  void MarkShed(std::size_t i, Seconds now) const {
    if (journaled(i)) sinks_.journal->MarkShed(slot(i), now);
  }
  void MarkReadmitted(std::size_t i, Seconds now) const {
    if (journaled(i)) sinks_.journal->MarkReadmitted(slot(i), now);
  }
  void MarkDegraded(std::size_t i, Seconds now, double detail) const {
    if (journaled(i)) sinks_.journal->MarkDegraded(slot(i), now, detail);
  }

  /// Closes the run: copies the auditor's violation total into `qos`,
  /// warns about dropped telemetry (`context` names the server), then
  /// journals trailing underflows and departs every registered stream.
  /// Departure is per server, not StreamJournal::Finalize(): a farm
  /// sharing one journal must not depart other servers' streams.
  void Finish(Seconds horizon, const PlaybackBatch& play, QosCounters* qos,
              const char* context);

 private:
  /// 32-bit indices keep a record at four words: a journaled farm shard
  /// holds thousands of them.
  struct Stream {
    std::int32_t session = kNoSession;
    std::int32_t jslot = -1;   ///< -1 = not journaled
    std::int64_t uf_seen = 0;  ///< underflow events already journaled
    obs::TimeWeightedGauge* gauge = nullptr;
    obs::TimelineSeries* series = nullptr;
  };

  bool journaled(std::size_t i) const {
    return sinks_.journal != nullptr && streams_[i].jslot >= 0;
  }
  std::size_t slot(std::size_t i) const {
    return static_cast<std::size_t>(streams_[i].jslot);
  }
  /// Journals stream `i`'s underflow events since the last look and
  /// returns how many there were.
  std::int64_t TakeUnderflows(std::size_t i, Seconds now,
                              const PlaybackBatch& play);

  Sinks sinks_;
  obs::MetricsRegistry* gauge_registry_ = nullptr;  ///< null: no gauges
  obs::Slo* slo_underflow_ = nullptr;
  obs::Slo* slo_slack_ = nullptr;
  obs::Slo* slo_availability_ = nullptr;
  std::int64_t playing_ = 0;  ///< streams with a playback session
  std::vector<Stream> streams_;
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_TELEMETRY_H_
