#include "server/telemetry.h"

#include <string>

#include "obs/exporters.h"

namespace memstream::server {

Status Sinks::CheckAuditor(std::size_t num_streams) const {
  if (auditor != nullptr && auditor->num_streams() != num_streams) {
    return Status::InvalidArgument(
        "auditor stream registration does not match the stream set");
  }
  return Status::OK();
}

void StreamTelemetry::Reset(const Sinks& sinks, std::size_t num_streams,
                            StreamTelemetryOptions options) {
  sinks_ = sinks;
  gauge_registry_ = options.occupancy_gauges ? sinks.metrics : nullptr;
  slo_underflow_ = nullptr;
  slo_slack_ = nullptr;
  slo_availability_ = nullptr;
  playing_ = 0;
  if (sinks_.slo != nullptr) {
    slo_underflow_ = sinks_.slo->Add(obs::StandardUnderflowSlo());
    slo_slack_ = sinks_.slo->Add(obs::StandardCycleSlackSlo());
    if (options.availability_slo) {
      slo_availability_ = sinks_.slo->Add(obs::StandardAvailabilitySlo());
    }
  }
  const bool per_stream = sinks_.journal != nullptr ||
                          gauge_registry_ != nullptr ||
                          sinks_.timelines != nullptr ||
                          sinks_.slo != nullptr;
  streams_.assign(per_stream ? num_streams : 0, Stream{});
}

void StreamTelemetry::Set(std::size_t i, std::int64_t id,
                          BytesPerSecond bit_rate, Bytes envelope,
                          std::ptrdiff_t session, const char* suffix) {
  if (session != kNoSession) ++playing_;
  if (streams_.empty()) return;
  Stream& s = streams_[i];
  s.session = static_cast<std::int32_t>(session);
  if (sinks_.journal != nullptr) {
    s.jslot = static_cast<std::int32_t>(
        sinks_.journal->EnsureStream(id, bit_rate, envelope, 0.0));
  }
  if (gauge_registry_ != nullptr || sinks_.timelines != nullptr) {
    const std::string name =
        std::string("stream.") + std::to_string(id) + suffix;
    if (gauge_registry_ != nullptr) {
      s.gauge = gauge_registry_->time_weighted(name);
    }
    if (sinks_.timelines != nullptr) {
      s.series = sinks_.timelines->AddSeries(name, "bytes");
    }
  }
}

void StreamTelemetry::EndCycle(Seconds now, bool overrun,
                               const PlaybackBatch& play, std::int64_t shed) {
  CycleSlack(now, overrun);
  if (sinks_.journal == nullptr && sinks_.slo == nullptr) return;
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].session == kNoSession) continue;
    if (TakeUnderflows(i, now, play) > 0) ++bad;
  }
  if (playing_ > 0) {
    obs::SloRecord(slo_underflow_, now, playing_ - bad, bad);
    obs::SloRecord(slo_availability_, now, playing_ - shed, shed);
  }
}

void StreamTelemetry::ScanStreamUnderflows(std::size_t i, Seconds now,
                                           const PlaybackBatch& play) {
  if (streams_.empty()) return;
  const bool bad = TakeUnderflows(i, now, play) > 0;
  obs::SloRecord(slo_underflow_, now, bad ? 0 : 1, bad ? 1 : 0);
}

std::int64_t StreamTelemetry::TakeUnderflows(std::size_t i, Seconds now,
                                             const PlaybackBatch& play) {
  Stream& s = streams_[i];
  const std::int64_t delta =
      play.underflow_events(static_cast<std::size_t>(s.session)) - s.uf_seen;
  s.uf_seen += delta;
  obs::JournalUnderflows(sinks_.journal, s.jslot, now, delta);
  return delta;
}

void StreamTelemetry::Finish(Seconds horizon, const PlaybackBatch& play,
                             QosCounters* qos, const char* context) {
  if (sinks_.auditor != nullptr) {
    qos->violations = sinks_.auditor->total_violations();
  }
  obs::WarnDroppedTelemetry(sinks_.trace, context);
  if (sinks_.journal == nullptr) return;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].session != kNoSession) TakeUnderflows(i, horizon, play);
    if (journaled(i)) sinks_.journal->MarkDeparted(slot(i), horizon);
  }
}

}  // namespace memstream::server
