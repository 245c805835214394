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
//
// Sink output: each mode also runs untraced with a MetricsRegistry,
// TimelineRecorder, StreamJournal and SloMonitor attached, and the
// metrics CSV, the journal (every entry and the summary), the SLO status
// JSON and every timeline series are pinned by FNV-1a digest, so a change
// to how servers feed their sinks must reproduce them unchanged.
//
// Reported values: each mode's untraced fingerprint is pinned by FNV-1a
// digest, so a reshaped server must also report the same absolute
// values, not only the same values traced and untraced.

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
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "obs/timeline.h"
#include "server/edf_server.h"
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
  events.push_back({fail_at, fault::FaultKind::kMemsDeviceFail, device, 0});
  events.push_back({repair_at, fault::FaultKind::kMemsDeviceRepair, device,
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

/// A seeded plan of device failures and their repairs.
fault::FaultPlan SeededPlan(std::uint64_t seed) {
  fault::FaultPlanConfig pc;
  pc.horizon = 30;
  pc.num_devices = 2;
  pc.device_fail_rate = 0.05;
  pc.repair_after = 4;
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

/// Every reported quantity of a direct server and its sessions.
std::string DirectFingerprint(const DirectStreamingServer& srv) {
  const ServerReport& r = srv.report();
  std::ostringstream out;
  out << r.disk.cycles << " " << r.ios_completed << " " << r.disk.overruns
      << " " << Bits(r.disk.max_busy) << " " << Bits(r.disk.busy) << " "
      << r.qos.underflow_events << " " << Bits(r.qos.underflow_time) << " "
      << r.qos.overflow_events << " " << Bits(r.qos.overflow_time) << " "
      << Bits(r.peak_dram) << " " << Bits(r.disk.utilization) << "\n";
  for (const StreamView& v : srv.play_sessions()) {
    AppendSession(v, &out);
  }
  for (const RecordingView& v : srv.record_sessions()) {
    out << "recording " << v.id() << " " << Bits(v.total_drained()) << " "
        << Bits(v.peak_level()) << " " << v.overflow_events() << "\n";
  }
  return out.str();
}

/// Direct-server write (recording) streams are not reachable through the
/// facade; this drives the server itself with a read/write mix.
std::string RunDirectMix(bool deterministic, const Sinks& sinks) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  DirectServerConfig config;
  config.cycle = 0.5;
  config.deterministic = deterministic;
  config.seed = 5;
  config.sinks = sinks;
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
  auto srv = DirectStreamingServer::Create(&disk.value(), streams, config);
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  if (!srv.ok()) return "";
  EXPECT_TRUE(srv.value().Run(15).ok());
  return DirectFingerprint(srv.value());
}

/// The direct server's best-effort slack filler (§3.1.2), which the
/// facade does not configure.
std::string RunDirectBestEffort(const Sinks& sinks) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  DirectServerConfig config;
  config.cycle = 0.25;
  config.best_effort_io = 256 * kKB;
  config.seed = 13;
  config.sinks = sinks;
  std::vector<StreamSpec> streams;
  for (int i = 0; i < 10; ++i) {
    StreamSpec s;
    s.id = i;
    s.bit_rate = 1 * kMBps;
    s.disk_offset = static_cast<double>(i) * 10 * kGB;
    s.extent = 4 * kGB;
    streams.push_back(s);
  }
  auto srv = DirectStreamingServer::Create(&disk.value(), streams, config);
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  if (!srv.ok()) return "";
  EXPECT_TRUE(srv.value().Run(10).ok());
  const ServerReport& r = srv.value().report();
  EXPECT_GT(r.best_effort_ios, 0);
  std::ostringstream out;
  out << "best_effort " << r.best_effort_ios << " "
      << Bits(r.best_effort_bytes) << "\n";
  return DirectFingerprint(srv.value()) + out.str();
}

/// The MEMS-buffer pipeline, which the facade only builds round-robin,
/// driven directly so the striped placement is covered too.
std::string RunPipeline(model::BufferPlacement placement, bool deterministic,
                        const Sinks& sinks) {
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
  config.sinks = sinks;
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
                                        streams, config);
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  if (!srv.ok()) return "";
  EXPECT_TRUE(srv.value().Run(20).ok());
  const ServerReport& r = srv.value().report();
  std::ostringstream out;
  out << r.disk.cycles << " " << r.disk.overruns << " " << Bits(r.disk.busy)
      << " " << r.mems.cycles << " " << r.mems.overruns << " "
      << Bits(r.mems.busy) << " " << r.ios_completed << " "
      << r.starved_reads << " " << r.qos.underflow_events << " "
      << Bits(r.qos.underflow_time) << " " << Bits(r.peak_mems_occupancy)
      << " " << Bits(r.peak_dram) << " " << Bits(r.disk.utilization) << " "
      << Bits(r.mems.utilization) << "\n";
  for (std::size_t i = 0; i < srv.value().num_streams(); ++i) {
    AppendSession(srv.value().session(i), &out);
  }
  return out.str();
}

/// The EDF server, which the facade does not build.
std::string RunEdf(const Sinks& sinks) {
  device::DiskParameters dp = device::FutureDisk2007();
  dp.inner_rate = dp.outer_rate;
  auto disk = device::DiskDrive::Create(dp);
  EXPECT_TRUE(disk.ok());
  EdfServerConfig config;
  config.io_playback = 0.5;
  config.sinks = sinks;
  std::vector<StreamSpec> streams;
  for (int i = 0; i < 16; ++i) {
    StreamSpec s;
    s.id = i;
    s.bit_rate = 2 * kMBps;
    s.disk_offset = static_cast<double>(i) * 6 * kGB;
    s.extent = 3 * kGB;
    streams.push_back(s);
  }
  auto srv = EdfStreamingServer::Create(&disk.value(), streams, config);
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  if (!srv.ok()) return "";
  EXPECT_TRUE(srv.value().Run(20).ok());
  const ServerReport& r = srv.value().report();
  std::ostringstream out;
  out << r.ios_completed << " " << r.deadline_misses << " "
      << Bits(r.disk.busy) << " " << Bits(r.idle_time) << " "
      << r.qos.underflow_events << " " << Bits(r.qos.underflow_time) << " "
      << Bits(r.peak_dram) << " " << Bits(r.disk.utilization) << "\n";
  for (std::size_t i = 0; i < srv.value().num_streams(); ++i) {
    AppendSession(srv.value().session(i), &out);
  }
  return out.str();
}

/// One named run: `run(sinks)` simulates it with the given sinks attached
/// and returns the fingerprint of everything it reported.
struct Scenario {
  std::string name;
  std::function<std::string(const Sinks&)> run;
  bool faulted = false;
};

Scenario Facade(std::string name, MediaServerConfig config) {
  const bool faulted = !config.fault_plan.empty();
  return {std::move(name),
          [config](const Sinks& sinks) {
            MediaServerConfig c = config;
            c.trace = sinks.trace;
            c.metrics = sinks.metrics;
            c.timelines = sinks.timelines;
            c.journal = sinks.journal;
            c.slo = sinks.slo;
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
    out.push_back({"direct_read_write" + lat, [det](const Sinks& a) {
                     return RunDirectMix(det, a);
                   }});
    out.push_back(
        Facade("buffer_facade" + lat, Base(ServerMode::kMemsBuffer, det)));
    for (const auto placement : {model::BufferPlacement::kRoundRobinStreams,
                                 model::BufferPlacement::kStripedIos}) {
      const bool striped = placement == model::BufferPlacement::kStripedIos;
      out.push_back(
          {std::string("buffer_") + (striped ? "striped" : "round_robin") +
               lat,
           [placement, det](const Sinks& a) {
             return RunPipeline(placement, det, a);
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
  // Never repaired: the shed streams depart still shed.
  out.push_back(Facade(
      "cache_striped_fail_only",
      FaultedCache(model::CachePolicy::kStriped,
                   fault::FaultPlan::FromScript(
                       {{8, fault::FaultKind::kMemsDeviceFail, 1, 0}}))));
  MediaServerConfig pipeline_faults = Base(ServerMode::kMemsBuffer, true);
  pipeline_faults.fault_plan = FailRepair(0, 6, 9);
  out.push_back(Facade("buffer_facade_fail_repair", pipeline_faults));
  out.push_back({"edf_det", RunEdf});
  out.push_back({"direct_best_effort_det", RunDirectBestEffort});
  return out;
}

TEST(CompletionPathTest, TracingChangesNoReportedQuantity) {
  for (const Scenario& s : Scenarios()) {
    SCOPED_TRACE(s.name);
    const std::string untraced = s.run({});
    ASSERT_FALSE(untraced.empty());
    sim::TraceLog unbounded;
    EXPECT_EQ(s.run({.trace = &unbounded}), untraced);
    EXPECT_GT(unbounded.Count(sim::TraceKind::kIoCompleted), 0);
    // A small ring wraps many times; eviction must not leak into results.
    sim::TraceLog ring(64);
    EXPECT_EQ(s.run({.trace = &ring}), untraced);
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
    s.run({.trace = &log});
    EXPECT_GT(log.Count(sim::TraceKind::kFaultStart), 0) << s.name;
  }
  EXPECT_EQ(faulted, 6);
  const std::string shed =
      Facade("x", FaultedCache(model::CachePolicy::kStriped,
                               FailRepair(1, 8, 14)))
          .run({});
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
    {"cache_replicated_seeded_plan", 91430, 0xdf7b26e8cf1985d4ull},
    {"cache_striped_fail_repair", 46850, 0x74f8507829464fdfull},
    {"cache_striped_seeded_plan", 50969, 0x9b84b8dfdda3dcc6ull},
    {"cache_striped_fail_only", 17580, 0xce2be28b1109c93aull},
    {"buffer_facade_fail_repair", 55062, 0x87d621becf0cd30bull},
    {"edf_det", 640, 0x07726ec0669aa4d5ull},
    {"direct_best_effort_det", 880, 0x228492291d8fb3c5ull},
};

TEST(TraceOrderTest, EveryModeReproducesThePinnedTrace) {
  const std::vector<Scenario> scenarios = Scenarios();
  ASSERT_EQ(std::size(kPinned), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.name, kPinned[i].name);
    sim::TraceLog log;
    s.run({.trace = &log});
    EXPECT_EQ(log.records().size(), kPinned[i].records);
    EXPECT_EQ(Digest(log), kPinned[i].digest);
  }
}

// ---------------------------------------------------------------------
// Sink output

std::uint64_t DigestText(std::string_view text) {
  std::uint64_t h = kFnvOffset;
  Mix(&h, text.data(), text.size());
  return h;
}

/// The metrics CSV minus the simulator's wall-clock gauges, the only rows
/// that differ between two runs of the same configuration.
std::uint64_t MetricsDigest(const obs::MetricsRegistry& metrics) {
  std::istringstream csv(metrics.ToCsvText());
  std::string kept;
  for (std::string line; std::getline(csv, line);) {
    if (line.rfind("sim.wall_seconds,", 0) == 0 ||
        line.rfind("sim.events_per_sec_wall,", 0) == 0) {
      continue;
    }
    kept += line;
    kept += '\n';
  }
  return DigestText(kept);
}

std::uint64_t JournalDigest(const obs::StreamJournal& journal) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const obs::StreamJournalEntry& e = journal.entry(i);
    MixU64(&h, static_cast<std::uint64_t>(e.stream_id));
    MixU64(&h, Bits(e.bit_rate));
    MixU64(&h, Bits(e.envelope_bytes));
    MixU64(&h, static_cast<std::uint64_t>(e.phase));
    MixU64(&h, static_cast<std::uint64_t>(e.ios));
    MixU64(&h, Bits(e.bytes));
    MixU64(&h, static_cast<std::uint64_t>(e.underflows));
    MixU64(&h, static_cast<std::uint64_t>(e.sheds));
    MixU64(&h, static_cast<std::uint64_t>(e.readmits));
    MixU64(&h, static_cast<std::uint64_t>(e.degrades));
    MixU64(&h, Bits(e.peak_level_bytes));
    MixU64(&h, static_cast<std::uint64_t>(e.occupancy.TotalCount()));
    for (std::size_t b = 0; b < e.occupancy.NumBuckets(); ++b) {
      MixU64(&h, static_cast<std::uint64_t>(e.occupancy.BucketCount(b)));
    }
    MixU64(&h, Bits(e.occupancy.stats().sum()));
    for (const obs::StreamEvent& ev : e.events) {
      MixU64(&h, Bits(ev.t));
      MixU64(&h, static_cast<std::uint64_t>(ev.kind));
      MixU64(&h, Bits(ev.detail));
    }
    MixU64(&h, static_cast<std::uint64_t>(e.events_dropped));
  }
  const obs::StreamJournalSummary s = journal.Summarize();
  for (const std::int64_t v :
       {s.count, s.departed, s.shed, s.still_shed, s.readmitted, s.degraded,
        s.underflow_streams, s.total_ios, s.total_underflows,
        s.events_dropped}) {
    MixU64(&h, static_cast<std::uint64_t>(v));
  }
  MixU64(&h, Bits(s.min_headroom));
  return h;
}

std::uint64_t TimelineDigest(const obs::TimelineRecorder& timelines) {
  std::uint64_t h = kFnvOffset;
  for (const obs::TimelineSeries& series : timelines.series()) {
    MixString(&h, series.name());
    MixString(&h, series.unit());
    MixU64(&h, series.samples_seen());
    MixU64(&h, series.stride());
    for (const obs::TimelinePoint& p : series.points()) {
      MixU64(&h, Bits(p.t));
      MixU64(&h, Bits(p.v));
    }
  }
  return h;
}

struct PinnedSinks {
  const char* name;
  std::uint64_t metrics;
  std::uint64_t journal;
  std::uint64_t slo;
  std::uint64_t timelines;
};

// Recorded before the servers shared one telemetry helper (the fail-only
// row after departing streams stopped clearing still_shed, the edf_det
// metrics after EDF gained the standard run gauges: underflow time, peak
// DRAM, device and simulator stats); a change to how they feed their
// sinks must reproduce them exactly.
constexpr PinnedSinks kPinnedSinks[] = {
    {"direct_det", 0x0d825d5a7f4e80b4ull, 0x43cffa69e2243bebull,
     0x63b0d82ca7bd5f7full, 0x2f39c6bb12f60c46ull},
    {"direct_read_write_det", 0x0f989e27ca4c3b75ull, 0x8345397c7f96745full,
     0xd26618f9dd12981aull, 0x9374bde255df96ffull},
    {"buffer_facade_det", 0xb1a0c824a141b58full, 0xcd387b49a9ebb2c4ull,
     0xb9754926b659b9d1ull, 0x3012717b0d1dcefaull},
    {"buffer_round_robin_det", 0xe3aab2667d8595d6ull, 0xc34bc3fe38a63574ull,
     0x9412561153ddbfd8ull, 0x0fbce8d07eb9e018ull},
    {"buffer_striped_det", 0x2face1d85996b917ull, 0x1bdd0f261c643497ull,
     0x3f32a849d3c51ae6ull, 0xcbbb1a5ece13e9abull},
    {"cache_replicated_det", 0x6002173c818e0214ull, 0x091d6015aa5f7983ull,
     0x03951b66365108bfull, 0x5e5851fa8b714c16ull},
    {"cache_striped_det", 0xf3b48520c6301af8ull, 0xf49abe3741eeb10eull,
     0xa055b01a19d188e8ull, 0x996e1df20fefa560ull},
    {"direct_sampled", 0xf78969bbf884628dull, 0x11c027d478701db9ull,
     0xd73edbd96c2ba313ull, 0x84c97ac53f4eef0full},
    {"direct_read_write_sampled", 0x0233f8edc9656690ull, 0x397395e072960e35ull,
     0xd26618f9dd12981aull, 0x10047434ac062635ull},
    {"buffer_facade_sampled", 0x01f53cdcd5ca82eeull, 0xe5e864727511f663ull,
     0xb9754926b659b9d1ull, 0xa97545b7434c6867ull},
    {"buffer_round_robin_sampled", 0xa44509e246c51611ull, 0xec62152eb146081cull,
     0x9412561153ddbfd8ull, 0xec1dfbe059f6538eull},
    {"buffer_striped_sampled", 0x803e5fd095f2ffb7ull, 0xb2d626429ce4498aull,
     0x3f32a849d3c51ae6ull, 0x623b0a8e26f73804ull},
    {"cache_replicated_sampled", 0x92a966853d538573ull, 0x5db6f1d80ce2f8d4ull,
     0xca635a18091eb7caull, 0x14e4a3ba901d0404ull},
    {"cache_striped_sampled", 0x62bbad21757ed39bull, 0x364e5fb71f6b36adull,
     0x5792286028aaf3d5ull, 0x6616c6b1af1e3a36ull},
    {"cache_replicated_fail_repair",
     0x19b43bff8da6fe43ull, 0x548c3f127007b75eull,
     0x6d4b3081b596e701ull, 0x787e71850283f279ull},
    {"cache_replicated_seeded_plan",
     0x130044579115ca3full, 0xecbf45b6ecd2b33aull,
     0xf94d18576b593ea3ull, 0x350581eb596bd808ull},
    {"cache_striped_fail_repair", 0xe16ea91356ff6a34ull, 0x7f981064dd19cc18ull,
     0xb97ad2423c40d401ull, 0x26fc99aea134e755ull},
    {"cache_striped_seeded_plan", 0x5f1b7473b4f48c18ull, 0x4bd3167b0c030898ull,
     0xf628f9f345c0d3abull, 0x5921d865ba5baa97ull},
    {"cache_striped_fail_only", 0x089877a0366ffa8eull, 0x1c925d2671031e96ull,
     0x2dd5410d5d0743a2ull, 0xfc0fead2381d05f9ull},
    {"buffer_facade_fail_repair", 0xbdfae1e1619fb3e8ull, 0xddef0909947ea4bbull,
     0xd1d321dace66e15dull, 0xac9fea9e43f26b14ull},
    {"edf_det", 0xf9e2d5f1654cbf92ull, 0xb207036127b92e59ull,
     0x67e2e34c909d4bf9ull, 0xe453e73367a0f4f0ull},
    {"direct_best_effort_det", 0x381c59833cdc358eull, 0x6c9a59d4c19e9a3full,
     0xd64971783af89e01ull, 0x9b0aac3dd22d2fa2ull},
};

TEST(SinkOutputTest, EveryModeReproducesThePinnedSinks) {
  const std::vector<Scenario> scenarios = Scenarios();
  ASSERT_EQ(std::size(kPinnedSinks), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.name, kPinnedSinks[i].name);
    obs::MetricsRegistry metrics;
    obs::TimelineRecorder timelines;
    obs::StreamJournal journal;
    obs::SloMonitor slo;
    s.run({.metrics = &metrics,
           .timelines = &timelines,
           .journal = &journal,
           .slo = &slo});
    ASSERT_GT(journal.size(), 0u);
    ASSERT_GT(timelines.size(), 0u);
    ASSERT_GT(slo.size(), 0u);
    EXPECT_EQ(MetricsDigest(metrics), kPinnedSinks[i].metrics);
    EXPECT_EQ(JournalDigest(journal), kPinnedSinks[i].journal);
    EXPECT_EQ(DigestText(slo.StatusJson()), kPinnedSinks[i].slo);
    EXPECT_EQ(TimelineDigest(timelines), kPinnedSinks[i].timelines);
  }
}

// ---------------------------------------------------------------------
// Reported values

struct PinnedReport {
  const char* name;
  std::uint64_t digest;
};

// FNV-1a of each scenario's untraced fingerprint string. The
// differential above only checks traced against untraced; these pin the
// absolute values too (starved reads, MEMS busy time, EDF idle time,
// the direct server's longest cycle, ...), so a reshaped server must
// report exactly what it reported before.
constexpr PinnedReport kPinnedReports[] = {
    {"direct_det", 0x641c1dfc5285c155ull},
    {"direct_read_write_det", 0x0b312d665296b211ull},
    {"buffer_facade_det", 0x9bd854cd04fec915ull},
    {"buffer_round_robin_det", 0x47f19940e11e7427ull},
    {"buffer_striped_det", 0xf19041244494b8f6ull},
    {"cache_replicated_det", 0x58e58680de5c6212ull},
    {"cache_striped_det", 0xfafc113fde143f80ull},
    {"direct_sampled", 0x8381b75911168b4full},
    {"direct_read_write_sampled", 0x0796cf59208195eeull},
    {"buffer_facade_sampled", 0xca597a4793fef47aull},
    {"buffer_round_robin_sampled", 0xa23617272859fbb6ull},
    {"buffer_striped_sampled", 0x5ebf14f5050002d1ull},
    {"cache_replicated_sampled", 0xc6aa3832910911b4ull},
    {"cache_striped_sampled", 0xc0ab363ec5652fdfull},
    {"cache_replicated_fail_repair", 0x2a5abcf1210a8523ull},
    {"cache_replicated_seeded_plan", 0x4fe23a502fb1785dull},
    {"cache_striped_fail_repair", 0x986ee10d207db3ccull},
    {"cache_striped_seeded_plan", 0x49ed7da546c79906ull},
    {"cache_striped_fail_only", 0xf98199c070e85f7dull},
    {"buffer_facade_fail_repair", 0x05c1b4487b9bd70full},
    {"edf_det", 0xfa48cc855c6f4cc3ull},
    {"direct_best_effort_det", 0x69c63b927e1c2a2eull},
};

TEST(ReportPinTest, EveryModeReproducesThePinnedReport) {
  const std::vector<Scenario> scenarios = Scenarios();
  ASSERT_EQ(std::size(kPinnedReports), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.name, kPinnedReports[i].name);
    const std::string fingerprint = s.run({});
    ASSERT_FALSE(fingerprint.empty());
    EXPECT_EQ(DigestText(fingerprint), kPinnedReports[i].digest)
        << fingerprint;
  }
}

}  // namespace
}  // namespace memstream::server
