#include "fault/fault_injector.h"

#include <iostream>

#include "common/profiler.h"

namespace memstream::fault {

FaultInjector::FaultInjector(const FaultPlan& plan,
                             const FaultInjectorConfig& config)
    : plan_(plan), config_(config) {
  if (obs::MetricsRegistry* m = config_.metrics; m != nullptr) {
    events_metric_ = m->counter("fault.events");
    repairs_metric_ = m->counter("fault.repairs");
    sheds_metric_ = m->counter("fault.sheds");
    readmits_metric_ = m->counter("fault.readmits");
    replans_metric_ = m->counter("fault.replans");
    active_metric_ = m->gauge("fault.active");
    dropped_metric_ = m->gauge("trace.dropped_records");
    m->SetHelp("fault.events", "Injected faults that became active");
    m->SetHelp("fault.sheds",
               "Streams shed by the degradation manager to restore "
               "feasibility");
    m->SetHelp("trace.dropped_records",
               "TraceLog records evicted by the bounded ring buffer over "
               "the whole run");
  }
}

std::string FaultInjector::ActorOf(const FaultEvent& e) const {
  return "mems" + std::to_string(e.device < 0 ? 0 : e.device);
}

void FaultInjector::EnterBurst() {
  if (active_faults_ == 0 && config_.trace != nullptr) {
    burst_drop_mark_ = config_.trace->dropped_records();
  }
  ++active_faults_;
  obs::Set(active_metric_, static_cast<double>(active_faults_));
}

void FaultInjector::LeaveBurst() {
  if (active_faults_ <= 0) return;
  --active_faults_;
  obs::Set(active_metric_, static_cast<double>(active_faults_));
  if (active_faults_ == 0 && config_.trace != nullptr) {
    block_.dropped_during_burst +=
        config_.trace->dropped_records() - burst_drop_mark_;
  }
}

void FaultInjector::OnFaultStart(const FaultEvent& e, Seconds now) {
  ++block_.events;
  obs::Increment(events_metric_);
  obs::FaultTimelineEntry entry;
  entry.time = now;
  entry.kind = FaultKindName(e.kind);
  entry.device = e.device;
  block_.timeline.push_back(entry);
  if (config_.trace != nullptr) {
    config_.trace->Append({now, sim::TraceKind::kFaultStart, ActorOf(e), -1,
                           0, FaultKindName(e.kind)});
  }
  EnterBurst();
}

void FaultInjector::OnFaultEnd(const FaultEvent& e, Seconds now) {
  ++block_.repairs;
  obs::Increment(repairs_metric_);
  obs::FaultTimelineEntry entry;
  entry.time = now;
  entry.kind = FaultKindName(e.kind);
  entry.device = e.device;
  entry.action = "cleared";
  block_.timeline.push_back(entry);
  if (config_.trace != nullptr) {
    config_.trace->Append({now, sim::TraceKind::kFaultEnd, ActorOf(e), -1, 0,
                           FaultKindName(e.kind), e.duration});
  }
  LeaveBurst();
}

Status FaultInjector::ScheduleIn(sim::Simulator& sim,
                                 DeviceFaultHandler device_handler) {
  for (const auto& e : plan_.events()) {
    MEMSTREAM_RETURN_IF_ERROR(
        sim.ScheduleAt(e.time, [this, e, device_handler, &sim] {
          if (e.kind == FaultKind::kMemsDeviceFail) {
            OnFaultStart(e, sim.Now());
          } else {
            OnFaultEnd(e, sim.Now());
          }
          if (device_handler) device_handler(e);
        }));
  }
  return Status::OK();
}

void FaultInjector::RecordShed(std::int64_t stream_id, Seconds now,
                               std::int64_t cycle) {
  ++block_.sheds;
  obs::Increment(sheds_metric_);
  obs::ShedRecord rec;
  rec.stream_id = stream_id;
  rec.shed_time = now;
  rec.shed_cycle = cycle;
  block_.shed_streams.push_back(rec);
  if (config_.trace != nullptr) {
    config_.trace->Append({now, sim::TraceKind::kNote, "degradation",
                           stream_id, 0, "shed stream"});
  }
}

void FaultInjector::RecordReadmit(std::int64_t stream_id, Seconds now) {
  // Close the most recent open shed record for this stream.
  for (auto it = block_.shed_streams.rbegin();
       it != block_.shed_streams.rend(); ++it) {
    if (it->stream_id == stream_id && it->readmit_time < 0) {
      it->readmit_time = now;
      block_.total_shed_time += now - it->shed_time;
      break;
    }
  }
  ++block_.readmits;
  obs::Increment(readmits_metric_);
  if (config_.trace != nullptr) {
    config_.trace->Append({now, sim::TraceKind::kNote, "degradation",
                           stream_id, 0, "re-admit stream"});
  }
}

void FaultInjector::RecordReplan(const FaultEvent& cause, Seconds now,
                                 const std::string& action) {
  ++block_.replans;
  obs::Increment(replans_metric_);
  // Annotate the matching timeline entry (the most recent one for this
  // kind/device) with the re-plan outcome.
  for (auto it = block_.timeline.rbegin(); it != block_.timeline.rend();
       ++it) {
    if (it->kind == FaultKindName(cause.kind) &&
        it->device == cause.device && it->action.empty()) {
      it->action = action;
      break;
    }
  }
  if (config_.trace != nullptr) {
    config_.trace->Append({now, sim::TraceKind::kNote, "degradation", -1, 0,
                           "replan: " + action});
  }
}

void FaultInjector::Finalize(Seconds horizon) {
  if (finalized_) return;
  finalized_ = true;
  // Settle the burst accounting for outages still open at run end.
  if (active_faults_ > 0 && config_.trace != nullptr) {
    block_.dropped_during_burst +=
        config_.trace->dropped_records() - burst_drop_mark_;
  }
  active_faults_ = 0;
  obs::Set(active_metric_, 0);
  // Streams never re-admitted accrue shed time up to the horizon.
  for (auto& rec : block_.shed_streams) {
    if (rec.readmit_time < 0) {
      block_.total_shed_time += horizon - rec.shed_time;
    }
  }
  if (config_.trace != nullptr) {
    obs::Set(dropped_metric_,
             static_cast<double>(config_.trace->dropped_records()));
    if (block_.dropped_during_burst > 0) {
      std::ostream& out =
          config_.warn_stream != nullptr ? *config_.warn_stream : std::cerr;
      out << "warning: trace.dropped_records="
          << config_.trace->dropped_records() << " dropped_during_burst="
          << block_.dropped_during_burst << " profiler_dropped_samples="
          << prof::Profiler::Global().dropped_samples()
          << " — the trace ring buffer evicted records while a fault was "
             "active; raise the trace capacity to keep the degraded "
             "window's evidence\n";
    }
  }
}

}  // namespace memstream::fault
