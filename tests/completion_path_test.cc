// Completion-path contracts of the simulated servers.
//
// Differential: attaching a TraceLog (or a fault plan) must not change a
// single reported quantity. Every server mode runs untraced, traced with
// an unbounded log, and traced with a small ring, and every
// MediaServerResult field — QoS counters, audited violations, peak DRAM,
// utilisations, fault/replan/shed counts — must match bit for bit.
//
// Trace order: for each mode a short run with an unbounded TraceLog is
// reduced to its record count and an FNV-1a digest over every field of
// every record. The pinned values fix the exact (time, insertion) order
// in which cycle, IO-completion, buffer-level, fault and QoS records
// interleave, so any change to how completions are dispatched must
// reproduce them unchanged.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "fault/fault_plan.h"
#include "model/mems_buffer.h"
#include "model/profiles.h"
#include "server/mems_pipeline_server.h"
#include "server/media_server.h"
#include "server/timecycle_server.h"
#include "sim/trace.h"

namespace memstream::server {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

MediaServerConfig Base(ServerMode mode, bool deterministic) {
  MediaServerConfig c;
  c.mode = mode;
  c.num_streams = mode == ServerMode::kDirect ? 30 : 20;
  c.bit_rate = 1 * kMBps;
  c.sim_duration = 20;
  c.deterministic = deterministic;
  c.seed = 7;
  return c;
}

fault::FaultPlan FailRepair(std::int64_t device, Seconds fail_at,
                            Seconds repair_at) {
  std::vector<fault::FaultEvent> events;
  events.push_back({fail_at, fault::FaultKind::kMemsDeviceFail, device, 0, 0});
  events.push_back({repair_at, fault::FaultKind::kMemsDeviceRepair, device, 0,
                    repair_at - fail_at});
  return fault::FaultPlan::FromScript(std::move(events));
}

/// ablation_faults' k = 2 cache under a fault plan.
MediaServerConfig FaultedCache(model::CachePolicy policy,
                               fault::FaultPlan plan) {
  MediaServerConfig c;
  c.mode = ServerMode::kMemsCache;
  c.cache_policy = policy;
  c.k = 2;
  c.num_streams = 30;
  c.cached_fraction_of_streams = 0.5;
  c.bit_rate = 8 * kMBps;
  c.sim_duration = 30;
  c.seed = 11;
  c.fault_plan = std::move(plan);
  c.fault_refill_delay = 1.0;
  return c;
}

/// A seeded plan with every device and disk fault kind.
fault::FaultPlan SeededPlan(std::uint64_t seed) {
  fault::FaultPlanConfig pc;
  pc.horizon = 30;
  pc.num_devices = 2;
  pc.device_fail_rate = 0.05;
  pc.repair_after = 4;
  pc.tip_loss_rate = 0.05;
  pc.disk_spike_rate = 0.1;
  auto plan = fault::FaultPlan::Generate(pc, seed);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? std::move(plan).value() : fault::FaultPlan();
}

/// Every reported quantity of a facade run, rendered exactly (doubles as
/// bit patterns), so two runs compare with one string equality and a
/// mismatch prints the differing field.
std::string Fingerprint(const MediaServerResult& r) {
  std::ostringstream out;
  out << "analytic_dram=" << Bits(r.analytic_dram_total)
      << "\ndisk_cycle=" << Bits(r.disk_cycle)
      << "\nmems_cycle=" << Bits(r.mems_cycle)
      << "\nunderflow_events=" << r.qos.underflow_events
      << "\nunderflow_time=" << Bits(r.qos.underflow_time)
      << "\noverflow_events=" << r.qos.overflow_events
      << "\noverflow_time=" << Bits(r.qos.overflow_time)
      << "\nviolations=" << r.qos.violations
      << "\ncycle_overruns=" << r.cycle_overruns
      << "\nsim_peak_dram=" << Bits(r.sim_peak_dram)
      << "\ndisk_utilization=" << Bits(r.disk_utilization)
      << "\nmems_utilization=" << Bits(r.mems_utilization)
      << "\nios_completed=" << r.ios_completed << "\n";
  if (r.auditor != nullptr) {
    out << "audited_disk_cycles=" << r.auditor->disk_cycles_audited()
        << "\naudited_mems_cycles=" << r.auditor->mems_cycles_audited()
        << "\naudited_violations=" << r.auditor->total_violations() << "\n";
    for (const obs::QosViolation& v : r.auditor->violations()) {
      // trace_index is deliberately excluded: it points into the log.
      out << "violation " << obs::QosInvariantName(v.invariant) << " stream="
          << v.stream_id << " cycle=" << v.cycle_index
          << " time=" << Bits(v.time) << " expected=" << Bits(v.expected)
          << " observed=" << Bits(v.observed) << " " << v.detail << "\n";
    }
  }
  if (r.faults != nullptr) {
    const obs::FaultsBlock& b = r.faults->block();
    out << "fault_events=" << b.events << "\nrepairs=" << b.repairs
        << "\nreplans=" << b.replans << "\nsheds=" << b.sheds
        << "\nreadmits=" << b.readmits
        << "\ntotal_shed_time=" << Bits(b.total_shed_time) << "\n";
    for (const obs::FaultTimelineEntry& e : b.timeline) {
      out << "timeline " << Bits(e.time) << " " << e.kind << " " << e.device
          << " " << Bits(e.magnitude) << " " << e.action << "\n";
    }
    for (const obs::ShedRecord& s : b.shed_streams) {
      out << "shed " << s.stream_id << " " << Bits(s.shed_time) << " "
          << s.shed_cycle << " " << Bits(s.readmit_time) << "\n";
    }
  }
  return out.str();
}

void AppendSession(const StreamView& v, std::ostringstream* out) {
  *out << "stream " << v.id() << " " << Bits(v.total_deposited()) << " "
       << Bits(v.peak_level()) << " " << v.underflow_events() << " "
       << Bits(v.underflow_time()) << "\n";
}

/// Direct-server write (recording) streams are not reachable through the
/// facade; this drives the server itself with a read/write mix.
std::string RunDirectMix(bool deterministic, sim::TraceLog* trace) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  DirectServerConfig config;
  config.cycle = 0.5;
  config.deterministic = deterministic;
  config.seed = 5;
  std::vector<StreamSpec> streams;
  for (int i = 0; i < 12; ++i) {
    StreamSpec s;
    s.id = i;
    s.bit_rate = 2 * kMBps;
    s.disk_offset = static_cast<double>(i) * 8 * kGB;
    s.extent = 4 * kGB;
    s.direction = i % 3 == 0 ? StreamDirection::kWrite : StreamDirection::kRead;
    streams.push_back(s);
  }
  auto srv =
      DirectStreamingServer::Create(&disk.value(), streams, config, trace);
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  if (!srv.ok()) return "";
  EXPECT_TRUE(srv.value().Run(15).ok());
  const ServerReport& r = srv.value().report();
  std::ostringstream out;
  out << r.cycles << " " << r.ios_completed << " " << r.cycle_overruns << " "
      << Bits(r.max_cycle_busy) << " " << Bits(r.total_busy) << " "
      << r.qos.underflow_events << " " << Bits(r.qos.underflow_time) << " "
      << r.qos.overflow_events << " " << Bits(r.qos.overflow_time) << " "
      << Bits(r.peak_buffer_demand) << " " << Bits(r.device_utilization)
      << "\n";
  for (const StreamView& v : srv.value().play_sessions()) {
    AppendSession(v, &out);
  }
  for (const RecordingView& v : srv.value().record_sessions()) {
    out << "recording " << v.id() << " " << Bits(v.total_drained()) << " "
        << Bits(v.peak_level()) << " " << v.overflow_events() << "\n";
  }
  return out.str();
}

/// The MEMS-buffer pipeline, which the facade only builds round-robin,
/// driven directly so the striped placement is covered too.
std::string RunPipeline(model::BufferPlacement placement, bool deterministic,
                        sim::TraceLog* trace) {
  device::DiskParameters dp = device::FutureDisk2007();
  dp.inner_rate = dp.outer_rate;
  auto disk = device::DiskDrive::Create(dp);
  EXPECT_TRUE(disk.ok());
  const std::int64_t n = 24;
  const std::int64_t k = 3;
  const BytesPerSecond b = 1 * kMBps;
  model::MemsBufferParams params;
  params.k = k;
  params.disk = model::DiskProfile(disk.value(), n);
  params.mems = model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
  params.placement = placement;
  auto range = model::FeasibleTdiskRange(n, b, params);
  EXPECT_TRUE(range.ok()) << range.status().ToString();
  if (!range.ok()) return "";
  auto sizing = model::SolveMemsBuffer(
      n, b, params, std::min(range.value().lower * 1.5, range.value().upper));
  EXPECT_TRUE(sizing.ok()) << sizing.status().ToString();
  if (!sizing.ok()) return "";
  MemsPipelineConfig config;
  config.t_disk = sizing.value().t_disk;
  config.t_mems = sizing.value().t_mems_snapped;
  config.placement = placement;
  config.deterministic = deterministic;
  config.seed = 9;
  std::vector<device::MemsDevice> bank;
  for (std::int64_t i = 0; i < k; ++i) {
    bank.push_back(device::MemsDevice::Create(device::MemsG3()).value());
  }
  std::vector<StreamSpec> streams;
  const Bytes stride = disk.value().Capacity() * 0.9 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    StreamSpec s;
    s.id = i;
    s.bit_rate = b;
    s.disk_offset = stride * static_cast<double>(i);
    s.extent = std::max(stride, 4 * b * config.t_disk);
    streams.push_back(s);
  }
  auto srv = MemsPipelineServer::Create(&disk.value(), std::move(bank),
                                        streams, config, trace);
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  if (!srv.ok()) return "";
  EXPECT_TRUE(srv.value().Run(20).ok());
  const MemsPipelineReport& r = srv.value().report();
  std::ostringstream out;
  out << r.disk_cycles << " " << r.disk_overruns << " " << Bits(r.disk_busy)
      << " " << r.mems_cycles << " " << r.mems_overruns << " "
      << Bits(r.mems_busy) << " " << r.ios_completed << " "
      << r.starved_reads << " " << r.qos.underflow_events << " "
      << Bits(r.qos.underflow_time) << " " << Bits(r.peak_mems_occupancy)
      << " " << Bits(r.peak_dram_demand) << " " << Bits(r.disk_utilization)
      << " " << Bits(r.mems_utilization) << "\n";
  for (std::size_t i = 0; i < srv.value().num_streams(); ++i) {
    AppendSession(srv.value().session(i), &out);
  }
  return out.str();
}

/// One named run: `run(trace)` simulates it with the given log (or none)
/// and returns the fingerprint of everything it reported.
struct Scenario {
  std::string name;
  std::function<std::string(sim::TraceLog*)> run;
  bool faulted = false;
};

Scenario Facade(std::string name, MediaServerConfig config) {
  const bool faulted = !config.fault_plan.empty();
  return {std::move(name),
          [config](sim::TraceLog* trace) {
            MediaServerConfig c = config;
            c.trace = trace;
            std::ostringstream warnings;
            c.fault_warn_stream = &warnings;
            auto result = RunMediaServer(c);
            EXPECT_TRUE(result.ok()) << result.status().ToString();
            return result.ok() ? Fingerprint(result.value()) : std::string();
          },
          faulted};
}

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> out;
  for (const bool det : {true, false}) {
    const std::string lat = det ? "_det" : "_sampled";
    out.push_back(Facade("direct" + lat, Base(ServerMode::kDirect, det)));
    out.push_back({"direct_read_write" + lat, [det](sim::TraceLog* t) {
                     return RunDirectMix(det, t);
                   }});
    out.push_back(
        Facade("buffer_facade" + lat, Base(ServerMode::kMemsBuffer, det)));
    for (const auto placement : {model::BufferPlacement::kRoundRobinStreams,
                                 model::BufferPlacement::kStripedIos}) {
      const bool striped = placement == model::BufferPlacement::kStripedIos;
      out.push_back(
          {std::string("buffer_") + (striped ? "striped" : "round_robin") +
               lat,
           [placement, det](sim::TraceLog* t) {
             return RunPipeline(placement, det, t);
           }});
    }
    for (const auto policy :
         {model::CachePolicy::kReplicated, model::CachePolicy::kStriped}) {
      MediaServerConfig c = Base(ServerMode::kMemsCache, det);
      c.cache_policy = policy;
      c.k = 4;
      out.push_back(Facade(std::string("cache_") +
                               (policy == model::CachePolicy::kStriped
                                    ? "striped"
                                    : "replicated") +
                               lat,
                           c));
    }
  }
  for (const auto policy :
       {model::CachePolicy::kReplicated, model::CachePolicy::kStriped}) {
    const bool striped = policy == model::CachePolicy::kStriped;
    const std::string p = striped ? "striped" : "replicated";
    out.push_back(Facade("cache_" + p + "_fail_repair",
                         FaultedCache(policy, FailRepair(1, 8, 14))));
    out.push_back(Facade("cache_" + p + "_seeded_plan",
                         FaultedCache(policy, SeededPlan(striped ? 3 : 4))));
  }
  MediaServerConfig pipeline_faults = Base(ServerMode::kMemsBuffer, true);
  pipeline_faults.fault_plan = FailRepair(0, 6, 9);
  out.push_back(Facade("buffer_facade_fail_repair", pipeline_faults));
  return out;
}

TEST(CompletionPathTest, TracingChangesNoReportedQuantity) {
  for (const Scenario& s : Scenarios()) {
    SCOPED_TRACE(s.name);
    const std::string untraced = s.run(nullptr);
    ASSERT_FALSE(untraced.empty());
    sim::TraceLog unbounded;
    EXPECT_EQ(s.run(&unbounded), untraced);
    EXPECT_GT(unbounded.Count(sim::TraceKind::kIoCompleted), 0);
    // A small ring wraps many times; eviction must not leak into results.
    sim::TraceLog ring(64);
    EXPECT_EQ(s.run(&ring), untraced);
    EXPECT_EQ(ring.records().size(), 64u);
    EXPECT_EQ(ring.dropped_records() + 64,
              static_cast<std::int64_t>(unbounded.records().size()));
  }
}

TEST(CompletionPathTest, FaultScenariosExerciseDegradation) {
  // Guards the differential above against vacuous fault plans.
  std::int64_t faulted = 0;
  for (const Scenario& s : Scenarios()) {
    if (!s.faulted) continue;
    ++faulted;
    sim::TraceLog log;
    s.run(&log);
    EXPECT_GT(log.Count(sim::TraceKind::kFaultStart), 0) << s.name;
  }
  EXPECT_EQ(faulted, 5);
  const std::string shed =
      Facade("x", FaultedCache(model::CachePolicy::kStriped,
                               FailRepair(1, 8, 14)))
          .run(nullptr);
  EXPECT_EQ(shed.find("sheds=0\n"), std::string::npos) << shed;
  EXPECT_NE(shed.find("replans="), std::string::npos);
}

// ---------------------------------------------------------------------
// Trace order

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void Mix(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void MixU64(std::uint64_t* h, std::uint64_t v) { Mix(h, &v, sizeof(v)); }

void MixString(std::uint64_t* h, std::string_view s) {
  MixU64(h, s.size());
  Mix(h, s.data(), s.size());
}

/// FNV-1a over every field of every record, in log order.
std::uint64_t Digest(const sim::TraceLog& log) {
  std::uint64_t h = kFnvOffset;
  for (const sim::TraceRecord& r : log.records()) {
    MixU64(&h, Bits(r.time));
    MixU64(&h, static_cast<std::uint64_t>(r.kind));
    MixString(&h, r.actor);
    MixU64(&h, static_cast<std::uint64_t>(r.stream_id));
    MixU64(&h, Bits(r.bytes));
    MixString(&h, r.detail);
    MixU64(&h, Bits(r.duration));
  }
  return h;
}

struct PinnedTrace {
  const char* name;
  std::size_t records;
  std::uint64_t digest;
};

// Recorded with the event-scheduled completion path these contracts
// were written against; a dispatch change must reproduce them exactly.
constexpr PinnedTrace kPinned[] = {
    {"direct_det", 14055, 0x61a04227dbb809ceull},
    {"direct_read_write_det", 660, 0xa00fb1331045b4ecull},
    {"buffer_facade_det", 73953, 0x5b29aee060d258dcull},
    {"buffer_round_robin_det", 139667, 0xb96c01701724c499ull},
    {"buffer_striped_det", 23048, 0x3a24b1d2ee5c75f5ull},
    {"cache_replicated_det", 182077, 0x8db12591681c80dcull},
    {"cache_striped_det", 60553, 0x55f4c40952dbbfc2ull},
    {"direct_sampled", 14080, 0x2f765829ab153127ull},
    {"direct_read_write_sampled", 660, 0x60f911c78782bb04ull},
    {"buffer_facade_sampled", 73952, 0x8bc38c23a9db8b63ull},
    {"buffer_round_robin_sampled", 139665, 0x058b88dcfff6e8b2ull},
    {"buffer_striped_sampled", 23048, 0x1157e33b29d9f798ull},
    {"cache_replicated_sampled", 182094, 0xeaa96de17130a303ull},
    {"cache_striped_sampled", 60570, 0xf60aea72a6e776f9ull},
    {"cache_replicated_fail_repair", 104702, 0x398d7cf42c58bf4aull},
    {"cache_replicated_seeded_plan", 105692, 0xd1d73e61ea2c8444ull},
    {"cache_striped_fail_repair", 46850, 0x74f8507829464fdfull},
    {"cache_striped_seeded_plan", 50841, 0x8f22c68add520a0aull},
    {"buffer_facade_fail_repair", 55062, 0x87d621becf0cd30bull},
};

TEST(TraceOrderTest, EveryModeReproducesThePinnedTrace) {
  const std::vector<Scenario> scenarios = Scenarios();
  ASSERT_EQ(std::size(kPinned), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.name, kPinned[i].name);
    sim::TraceLog log;
    s.run(&log);
    EXPECT_EQ(log.records().size(), kPinned[i].records);
    EXPECT_EQ(Digest(log), kPinned[i].digest);
  }
}

}  // namespace
}  // namespace memstream::server
