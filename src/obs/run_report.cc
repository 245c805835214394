#include "obs/run_report.h"

#include <fstream>

#include "obs/json_writer.h"

namespace memstream::obs {

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(kRunReportSchemaVersion);
  w.Key("title");
  w.String(title);

  w.Key("config");
  w.BeginObject();
  for (const auto& [key, value] : config) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();

  w.Key("analytic");
  w.BeginObject();
  for (const auto& [key, value] : analytic) {
    w.Key(key);
    w.Number(value);
  }
  w.EndObject();

  w.Key("simulated");
  w.BeginObject();
  for (const auto& [key, value] : simulated) {
    w.Key(key);
    w.Number(value);
  }
  w.EndObject();

  if (trace_dropped_records >= 0) {
    w.Key("trace_dropped_records");
    w.Int(trace_dropped_records);
  }

  if (qos != nullptr) {
    w.Key("qos");
    w.BeginObject();
    w.Key("total_violations");
    w.Int(qos->total_violations());
    w.Key("disk_cycles_audited");
    w.Int(qos->disk_cycles_audited());
    w.Key("mems_cycles_audited");
    w.Int(qos->mems_cycles_audited());
    w.Key("violations");
    w.BeginArray();
    for (const auto& v : qos->violations()) {
      w.BeginObject();
      w.Key("invariant");
      w.String(QosInvariantName(v.invariant));
      w.Key("stream_id");
      w.Int(v.stream_id);
      w.Key("cycle_index");
      w.Int(v.cycle_index);
      w.Key("time");
      w.Number(v.time);
      w.Key("expected");
      w.Number(v.expected);
      w.Key("observed");
      w.Number(v.observed);
      w.Key("detail");
      w.String(v.detail);
      w.Key("trace_index");
      w.Int(v.trace_index);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  if (faults != nullptr) {
    w.Key("faults");
    w.BeginObject();
    w.Key("events");
    w.Int(faults->events);
    w.Key("repairs");
    w.Int(faults->repairs);
    w.Key("replans");
    w.Int(faults->replans);
    w.Key("sheds");
    w.Int(faults->sheds);
    w.Key("readmits");
    w.Int(faults->readmits);
    w.Key("dropped_during_burst");
    w.Int(faults->dropped_during_burst);
    w.Key("total_shed_time");
    w.Number(faults->total_shed_time);
    w.Key("timeline");
    w.BeginArray();
    for (const auto& e : faults->timeline) {
      w.BeginObject();
      w.Key("time");
      w.Number(e.time);
      w.Key("kind");
      w.String(e.kind);
      w.Key("device");
      w.Int(e.device);
      w.Key("magnitude");
      w.Number(e.magnitude);
      w.Key("action");
      w.String(e.action);
      w.EndObject();
    }
    w.EndArray();
    w.Key("shed_streams");
    w.BeginArray();
    for (const auto& s : faults->shed_streams) {
      w.BeginObject();
      w.Key("stream_id");
      w.Int(s.stream_id);
      w.Key("shed_time");
      w.Number(s.shed_time);
      w.Key("shed_cycle");
      w.Int(s.shed_cycle);
      w.Key("readmit_time");
      w.Number(s.readmit_time);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  if (farm != nullptr) {
    w.Key("farm");
    w.BeginObject();
    w.Key("policy");
    w.String(farm->policy);
    w.Key("shards");
    w.Int(farm->shards);
    w.Key("titles");
    w.Int(farm->titles);
    w.Key("total_copies");
    w.Int(farm->total_copies);
    w.Key("offered");
    w.Int(farm->offered);
    w.Key("admitted");
    w.Int(farm->admitted);
    w.Key("rejected");
    w.Int(farm->rejected);
    w.Key("failovers");
    w.Int(farm->failovers);
    w.Key("shed");
    w.Int(farm->shed);
    w.Key("readmits");
    w.Int(farm->readmits);
    w.Key("availability");
    w.Number(farm->availability);
    w.Key("peak_dram_per_shard");
    w.Number(farm->peak_dram_per_shard);
    w.Key("mean_utilization");
    w.Number(farm->mean_utilization);
    w.Key("per_shard");
    w.BeginArray();
    for (const FarmShardEntry& s : farm->per_shard) {
      w.BeginObject();
      w.Key("shard");
      w.Int(s.shard);
      w.Key("streams");
      w.Int(s.streams);
      w.Key("ios");
      w.Int(s.ios);
      w.Key("underflow_events");
      w.Int(s.underflow_events);
      w.Key("cycle_overruns");
      w.Int(s.cycle_overruns);
      w.Key("qos_violations");
      w.Int(s.qos_violations);
      w.Key("failed_over_in");
      w.Int(s.failed_over_in);
      w.Key("shed");
      w.Int(s.shed);
      w.Key("peak_dram_bytes");
      w.Number(s.peak_dram_bytes);
      w.Key("utilization");
      w.Number(s.utilization);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  if (streams != nullptr && streams->size() > 0) {
    const StreamJournalSummary summary = streams->Summarize();
    w.Key("streams");
    w.BeginObject();
    w.Key("count");
    w.Int(summary.count);
    w.Key("departed");
    w.Int(summary.departed);
    w.Key("shed");
    w.Int(summary.shed);
    w.Key("still_shed");
    w.Int(summary.still_shed);
    w.Key("readmitted");
    w.Int(summary.readmitted);
    w.Key("degraded");
    w.Int(summary.degraded);
    w.Key("underflow_streams");
    w.Int(summary.underflow_streams);
    w.Key("total_ios");
    w.Int(summary.total_ios);
    w.Key("total_underflows");
    w.Int(summary.total_underflows);
    w.Key("events_dropped");
    w.Int(summary.events_dropped);
    w.Key("min_headroom");
    w.Number(summary.min_headroom);
    w.Key("per_stream");
    w.BeginArray();
    for (std::size_t i = 0; i < streams->size(); ++i) {
      const StreamJournalEntry& e = streams->entry(i);
      w.BeginObject();
      w.Key("id");
      w.Int(e.stream_id);
      w.Key("bit_rate");
      w.Number(e.bit_rate);
      w.Key("phase");
      w.String(StreamPhaseName(e.phase));
      w.Key("ios");
      w.Int(e.ios);
      w.Key("bytes");
      w.Number(e.bytes);
      w.Key("underflows");
      w.Int(e.underflows);
      w.Key("sheds");
      w.Int(e.sheds);
      w.Key("readmits");
      w.Int(e.readmits);
      w.Key("degrades");
      w.Int(e.degrades);
      w.Key("envelope_bytes");
      w.Number(e.envelope_bytes);
      w.Key("peak_level_bytes");
      w.Number(e.peak_level_bytes);
      w.Key("headroom");
      w.Number(e.headroom());
      w.Key("occ_p50");
      w.Number(e.occupancy.Quantile(0.5));
      w.Key("occ_p95");
      w.Number(e.occupancy.Quantile(0.95));
      w.Key("occ_p99");
      w.Number(e.occupancy.Quantile(0.99));
      w.Key("events");
      w.BeginArray();
      for (const StreamEvent& ev : e.events) {
        w.BeginObject();
        w.Key("t");
        w.Number(ev.t);
        w.Key("kind");
        w.String(StreamEventKindName(ev.kind));
        if (ev.detail != 0) {
          w.Key("detail");
          w.Number(ev.detail);
        }
        w.EndObject();
      }
      w.EndArray();
      if (e.events_dropped > 0) {
        w.Key("events_dropped");
        w.Int(e.events_dropped);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  if (slo != nullptr && slo->size() > 0) {
    w.Key("slo");
    slo->WriteJson(&w);
  }

  if (timelines != nullptr && timelines->size() > 0) {
    w.Key("timelines");
    w.BeginArray();
    for (const auto& s : timelines->series()) {
      w.BeginObject();
      w.Key("name");
      w.String(s.name());
      w.Key("unit");
      w.String(s.unit());
      w.Key("stride");
      w.Int(static_cast<std::int64_t>(s.stride()));
      w.Key("samples_seen");
      w.Int(static_cast<std::int64_t>(s.samples_seen()));
      w.Key("points");
      w.BeginArray();
      for (const auto& p : s.points()) {
        w.BeginArray();
        w.Number(p.t);
        w.Number(p.v);
        w.EndArray();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
  }

  if (metrics != nullptr) {
    w.Key("metrics");
    w.BeginArray();
    for (const auto& s : metrics->Snapshot()) {
      w.BeginObject();
      w.Key("name");
      w.String(s.name);
      w.Key("kind");
      w.String(s.kind);
      w.Key("value");
      w.Number(s.value);
      if (s.kind == "histogram") {
        w.Key("count");
        w.Int(s.count);
        w.Key("min");
        w.Number(s.min);
        w.Key("max");
        w.Number(s.max);
        w.Key("mean");
        w.Number(s.mean);
        w.Key("p50");
        w.Number(s.p50);
        w.Key("p95");
        w.Number(s.p95);
        w.Key("p99");
        w.Number(s.p99);
      } else if (s.kind == "time_weighted") {
        w.Key("max");
        w.Number(s.max);
      }
      w.EndObject();
    }
    w.EndArray();
  }

  w.EndObject();
  return w.str();
}

Status RunReport::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  out << ToJson();
  out.close();
  if (!out.good()) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

}  // namespace memstream::obs
