#include "server/timecycle_server.h"

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/profiles.h"
#include "model/timecycle.h"

namespace memstream::server {
namespace {

// Uniform-rate variant: the analytical model (like the paper) uses a
// single R_disk, so the executable validation must not be polluted by
// zoned-rate variation (the facade's conservative zoned sizing is tested
// in media_server_test).
device::DiskDrive Future() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  auto disk = device::DiskDrive::Create(p);
  EXPECT_TRUE(disk.ok());
  return std::move(disk).value();
}

std::vector<StreamSpec> Spread(std::int64_t n, BytesPerSecond bit_rate,
                               Bytes capacity, Bytes min_extent) {
  std::vector<StreamSpec> streams;
  const Bytes stride = capacity * 0.9 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    StreamSpec s;
    s.id = i;
    s.bit_rate = bit_rate;
    s.disk_offset = stride * static_cast<double>(i);
    s.extent = std::max(min_extent, stride);
    streams.push_back(s);
  }
  return streams;
}

// The central validation: buffers sized by Theorem 1 (with the elevator
// latency) produce a schedule with no cycle overruns and no underflow.
TEST(DirectServerTest, AnalyticSizingYieldsJitterFreePlayback) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 50;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());

  DirectServerConfig config;
  config.cycle = cycle.value();
  auto server = DirectStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 2 * b * cycle.value()), config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(60.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_GT(report.disk.cycles, 50);
  EXPECT_EQ(report.disk.overruns, 0);
  EXPECT_EQ(report.qos.underflow_events, 0);
  EXPECT_DOUBLE_EQ(report.qos.underflow_time, 0.0);
  // Double-buffered operation needs at most two cycles of data resident.
  EXPECT_LE(report.peak_dram,
            2.0 * static_cast<double>(n) * b * cycle.value() * 1.01);
}

// The converse: a cycle much shorter than Theorem 1's minimum cannot be
// sustained — the disk overruns and streams underflow.
TEST(DirectServerTest, UndersizedCycleCausesOverrunsAndUnderflow) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 50;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());

  DirectServerConfig config;
  config.cycle = cycle.value() * 0.3;  // far below the feasible minimum
  auto server = DirectStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 2 * b * cycle.value()), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(60.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_GT(report.disk.overruns, 0);
  EXPECT_GT(report.qos.underflow_events, 0);
  EXPECT_GT(report.qos.underflow_time, 0.0);
}

TEST(DirectServerTest, UtilizationNearBandwidthShare) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 100;
  const BytesPerSecond b = 1 * kMBps;  // 100/300 of the disk
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());
  DirectServerConfig config;
  config.cycle = cycle.value();
  auto server = DirectStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 2 * b * cycle.value()), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(30.0).ok());
  // Transfer share alone is ~1/3; positioning raises it, zones too.
  EXPECT_GT(server.value().report().disk.utilization, 0.30);
  EXPECT_LT(server.value().report().disk.utilization, 1.0);
}

TEST(DirectServerTest, EveryStreamReceivesData) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 10;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());
  DirectServerConfig config;
  config.cycle = cycle.value();
  auto server = DirectStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 2 * b * cycle.value()), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(10.0).ok());
  for (std::size_t i = 0; i < server.value().num_streams(); ++i) {
    EXPECT_GT(server.value().session(i).total_deposited(), 0.0);
  }
}

TEST(DirectServerTest, TraceRecordsCyclesAndIos) {
  device::DiskDrive disk = Future();
  sim::TraceLog trace;
  DirectServerConfig config;
  config.cycle = 0.5;
  config.sinks.trace = &trace;
  auto server = DirectStreamingServer::Create(
      &disk, Spread(5, 100 * kKBps, disk.Capacity(), 1 * kMB), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(5.0).ok());
  EXPECT_GE(trace.Count(sim::TraceKind::kCycleStart), 9);
  EXPECT_GE(trace.Count(sim::TraceKind::kIoCompleted), 45);
}

TEST(DirectServerTest, RunTwiceRejected) {
  device::DiskDrive disk = Future();
  DirectServerConfig config;
  config.cycle = 0.5;
  auto server = DirectStreamingServer::Create(
      &disk, Spread(2, 100 * kKBps, disk.Capacity(), 1 * kMB), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(1.0).ok());
  EXPECT_EQ(server.value().Run(1.0).code(),
            StatusCode::kFailedPrecondition);
}

// §3.1.2: spare bandwidth carries best-effort traffic without putting
// the real-time streams at risk.
TEST(DirectServerTest, BestEffortFillsSlackWithoutJitter) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 20;  // light load: plenty of slack
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());

  DirectServerConfig config;
  // A relaxed cycle (2x the minimum) leaves slack wider than the
  // worst-case best-effort IO, so the filler can actually run.
  config.cycle = cycle.value() * 2;
  config.best_effort_io = 256 * kKB;
  auto server = DirectStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 2 * b * config.cycle), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(30.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_GT(report.best_effort_ios, 0);
  EXPECT_GT(report.best_effort_bytes, 0.0);
  // The slack filler must not disturb the real-time schedule.
  EXPECT_EQ(report.disk.overruns, 0);
  EXPECT_EQ(report.qos.underflow_events, 0);
  // It should push utilization well above the real-time-only level.
  EXPECT_GT(report.disk.utilization, 0.8);
}

TEST(DirectServerTest, BestEffortStarvedAtSaturation) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 250;  // near the 299-stream bandwidth bound
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());

  DirectServerConfig config;
  config.cycle = cycle.value();
  config.best_effort_io = 256 * kKB;
  auto server = DirectStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 2 * b * cycle.value()), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(30.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_EQ(report.qos.underflow_events, 0);
  // Real-time traffic claims ~90% of the cycle; best-effort gets scraps
  // relative to the real-time volume.
  EXPECT_LT(report.best_effort_bytes,
            0.2 * static_cast<double>(n) * b * 30.0);
}

TEST(DirectServerTest, BestEffortDisabledByDefault) {
  device::DiskDrive disk = Future();
  DirectServerConfig config;
  config.cycle = 0.5;
  auto server = DirectStreamingServer::Create(
      &disk, Spread(5, 100 * kKBps, disk.Capacity(), 1 * kMB), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(5.0).ok());
  EXPECT_EQ(server.value().report().best_effort_ios, 0);
}

// The analytic model works with the average bit-rate; the executable
// server handles a heterogeneous mix directly.
TEST(DirectServerTest, MixedBitRatePopulationJitterFree) {
  device::DiskDrive disk = Future();
  // 10 DVD + 30 DivX + 60 mp3: average (10*1000 + 30*100 + 60*10) / 100
  // = 136 KB/s.
  std::vector<StreamSpec> streams;
  const Bytes stride = disk.Capacity() * 0.9 / 100;
  for (std::int64_t i = 0; i < 100; ++i) {
    BytesPerSecond rate = i < 10 ? 1 * kMBps
                          : i < 40 ? 100 * kKBps
                                   : 10 * kKBps;
    streams.push_back({i, rate, stride * static_cast<double>(i),
                       std::max(stride, 64 * kMB)});
  }
  const BytesPerSecond avg = 136 * kKBps;
  auto cycle = model::IoCycleLength(100, avg, model::DiskProfile(disk, 100));
  ASSERT_TRUE(cycle.ok());
  DirectServerConfig config;
  config.cycle = cycle.value();
  auto server = DirectStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(30.0).ok());
  EXPECT_EQ(server.value().report().qos.underflow_events, 0);
  EXPECT_EQ(server.value().report().disk.overruns, 0);
}

// §3.1's write-stream extension: recording streams drain encoder staging
// buffers; with the Theorem 1 cycle the staging never overflows.
TEST(DirectServerTest, MixedReadWriteWorkloadJitterAndOverflowFree) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 40;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());

  DirectServerConfig config;
  config.cycle = cycle.value();
  auto streams = Spread(n, b, disk.Capacity(), 2 * b * cycle.value());
  for (std::size_t i = 0; i < streams.size(); i += 2) {
    streams[i].direction = StreamDirection::kWrite;
  }
  auto server = DirectStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(60.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_EQ(report.disk.overruns, 0);
  EXPECT_EQ(report.qos.underflow_events, 0);
  EXPECT_EQ(report.qos.overflow_events, 0);
  EXPECT_DOUBLE_EQ(report.qos.overflow_time, 0.0);
  ASSERT_EQ(server.value().record_sessions().size(), 20u);
  ASSERT_EQ(server.value().play_sessions().size(), 20u);
  for (const auto& recording : server.value().record_sessions()) {
    // Every recorder captured roughly the whole horizon's data.
    EXPECT_GT(recording.total_drained(), b * 60.0 * 0.9);
    // Staging stays within the double-buffer bound.
    EXPECT_LE(recording.peak_level(), 2.0 * b * cycle.value() * 1.01);
  }
}

TEST(DirectServerTest, UndersizedCycleOverflowsRecorders) {
  device::DiskDrive disk = Future();
  const std::int64_t n = 40;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());

  DirectServerConfig config;
  config.cycle = cycle.value() * 0.3;
  auto streams = Spread(n, b, disk.Capacity(), 2 * b * cycle.value());
  for (auto& s : streams) s.direction = StreamDirection::kWrite;
  auto server = DirectStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(60.0).ok());
  EXPECT_GT(server.value().report().qos.overflow_events, 0);
  EXPECT_GT(server.value().report().qos.overflow_time, 0.0);
}

TEST(DirectServerTest, CreateValidatesInputs) {
  device::DiskDrive disk = Future();
  DirectServerConfig config;
  config.cycle = 1.0;
  EXPECT_FALSE(
      DirectStreamingServer::Create(nullptr, Spread(1, 1 * kMBps, 1 * kGB, 1 * kMB),
                                    config)
          .ok());
  EXPECT_FALSE(DirectStreamingServer::Create(&disk, {}, config).ok());
  // Extent smaller than one IO.
  std::vector<StreamSpec> tiny{{0, 1 * kMBps, 0, 0.5 * kMB}};
  EXPECT_FALSE(DirectStreamingServer::Create(&disk, tiny, config).ok());
}

/// One audited run of `streams`: the auditor is registered in spec order
/// under the Theorem-1 envelope.
struct AuditedRun {
  DirectServerConfig config;
  std::vector<StreamSpec> streams;
  Seconds duration = 0;

  obs::QosAuditorConfig AuditorConfig() const {
    obs::QosAuditorConfig qac;
    qac.disk_cycle = config.cycle;
    return qac;
  }
  void Register(obs::QosAuditor* auditor) const {
    for (const StreamSpec& s : streams) {
      auditor->AddStream(s.id, s.bit_rate, 2 * s.bit_rate * config.cycle);
    }
    auditor->Seal();
  }
};

/// Mixed reads and writes on an undersized cycle, so the run has
/// overruns, underflows, overflows and audited violations to compare;
/// sampled rotational delays make it depend on the seed.
AuditedRun UndersizedMixedRun(const device::DiskDrive& disk, std::int64_t n,
                              double cycle_factor, std::uint64_t seed) {
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  EXPECT_TRUE(cycle.ok());
  AuditedRun run;
  run.config.cycle = cycle.value() * cycle_factor;
  run.config.deterministic = false;
  run.config.seed = seed;
  run.streams = Spread(n, b, disk.Capacity(), 2 * b * cycle.value());
  for (std::size_t i = 0; i < run.streams.size(); i += 3) {
    run.streams[i].direction = StreamDirection::kWrite;
  }
  run.duration = 20.0;
  return run;
}

// A server reset in place after a run behaves exactly like a fresh one
// over the new stream set: report, every session and the audit.
TEST(DirectServerTest, ResetAfterRunMatchesFreshServer) {
  device::DiskDrive used_disk = Future();
  const AuditedRun dirty = UndersizedMixedRun(used_disk, 60, 0.3, 7);
  obs::QosAuditor reused_auditor(dirty.AuditorConfig());
  dirty.Register(&reused_auditor);
  DirectServerConfig dirty_config = dirty.config;
  dirty_config.sinks.auditor = &reused_auditor;
  auto server =
      DirectStreamingServer::Create(&used_disk, dirty.streams, dirty_config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(dirty.duration).ok());
  ASSERT_GT(reused_auditor.total_violations(), 0);

  const AuditedRun run = UndersizedMixedRun(used_disk, 40, 0.5, 11);
  used_disk.Reset();
  used_disk.ResetStats();
  reused_auditor.Reset(run.AuditorConfig());
  run.Register(&reused_auditor);
  DirectServerConfig reused_config = run.config;
  reused_config.sinks.auditor = &reused_auditor;
  DirectStreamingServer& reused = server.value();
  ASSERT_TRUE(reused.Reset(&used_disk, run.streams, reused_config).ok());
  ASSERT_TRUE(reused.Run(run.duration).ok());

  device::DiskDrive fresh_disk = Future();
  obs::QosAuditor fresh_auditor(run.AuditorConfig());
  run.Register(&fresh_auditor);
  DirectServerConfig fresh_config = run.config;
  fresh_config.sinks.auditor = &fresh_auditor;
  auto fresh =
      DirectStreamingServer::Create(&fresh_disk, run.streams, fresh_config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(fresh.value().Run(run.duration).ok());

  const ServerReport& want = fresh.value().report();
  EXPECT_GT(want.disk.overruns, 0);
  EXPECT_GT(want.qos.underflow_events, 0);
  EXPECT_GT(want.qos.violations, 0);
  EXPECT_TRUE(reused.report() == want);
  EXPECT_EQ(used_disk.ios_serviced(), fresh_disk.ios_serviced());
  EXPECT_EQ(reused.num_streams(), run.streams.size());

  const auto plays = reused.play_sessions();
  const auto want_plays = fresh.value().play_sessions();
  ASSERT_EQ(plays.size(), want_plays.size());
  for (std::size_t i = 0; i < plays.size(); ++i) {
    EXPECT_EQ(plays[i].id(), want_plays[i].id());
    EXPECT_EQ(plays[i].playing(), want_plays[i].playing());
    EXPECT_EQ(plays[i].total_deposited(), want_plays[i].total_deposited());
    EXPECT_EQ(plays[i].peak_level(), want_plays[i].peak_level());
    EXPECT_EQ(plays[i].underflow_events(), want_plays[i].underflow_events());
    EXPECT_EQ(plays[i].underflow_time(), want_plays[i].underflow_time());
  }
  const auto records = reused.record_sessions();
  const auto want_records = fresh.value().record_sessions();
  ASSERT_EQ(records.size(), want_records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id(), want_records[i].id());
    EXPECT_EQ(records[i].total_drained(), want_records[i].total_drained());
    EXPECT_EQ(records[i].peak_level(), want_records[i].peak_level());
    EXPECT_EQ(records[i].overflow_events(), want_records[i].overflow_events());
    EXPECT_EQ(records[i].overflow_time(), want_records[i].overflow_time());
  }

  EXPECT_EQ(reused_auditor.total_violations(),
            fresh_auditor.total_violations());
  EXPECT_EQ(reused_auditor.Summary(), fresh_auditor.Summary());
  ASSERT_EQ(reused_auditor.violations().size(),
            fresh_auditor.violations().size());
  for (std::size_t i = 0; i < fresh_auditor.violations().size(); ++i) {
    EXPECT_EQ(reused_auditor.violations()[i].ToString(),
              fresh_auditor.violations()[i].ToString());
  }
}

/// One configuration of the multi-horizon comparisons.
struct HorizonCase {
  std::int64_t n = 0;
  double cycle_factor = 1.0;  ///< of Theorem 1's cycle; < 1 overruns
  bool deterministic = true;
  bool writes = false;          ///< every third stream records
  Bytes best_effort_io = 0;
  double dram_bound_ios = 2.0;  ///< audited per-stream bound, in IOs
};

/// What a run leaves for one horizon: its report, every read session and
/// the auditor's violation count.
struct HorizonResult {
  ServerReport report;
  std::vector<std::tuple<std::int64_t, bool, Bytes, Bytes, std::int64_t,
                         Seconds>>
      sessions;
};

HorizonResult Collect(const DirectStreamingServer& server, std::size_t h) {
  HorizonResult r;
  r.report = server.report(h);
  for (std::size_t i = 0; i < server.play_sessions().size(); ++i) {
    const StreamView v = server.session(h, i);
    r.sessions.emplace_back(v.id(), v.playing(), v.total_deposited(),
                            v.peak_level(), v.underflow_events(),
                            v.underflow_time());
  }
  return r;
}

/// A fresh disk, auditor and server for `c`, run over `horizons` (with
/// sessions); returns each horizon's result and the auditor's total.
std::vector<HorizonResult> RunCase(const HorizonCase& c,
                                   std::span<const Seconds> horizons,
                                   std::int64_t* auditor_total = nullptr) {
  device::DiskDrive disk = Future();
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(c.n, b, model::DiskProfile(disk, c.n));
  EXPECT_TRUE(cycle.ok());
  DirectServerConfig config;
  config.cycle = cycle.value() * c.cycle_factor;
  config.deterministic = c.deterministic;
  config.best_effort_io = c.best_effort_io;
  config.seed = 5;
  auto streams = Spread(c.n, b, disk.Capacity(), 2 * b * cycle.value());
  if (c.writes) {
    for (std::size_t i = 0; i < streams.size(); i += 3) {
      streams[i].direction = StreamDirection::kWrite;
    }
  }
  obs::QosAuditorConfig qac;
  qac.disk_cycle = config.cycle;
  // Tight enough that deposits breach the per-stream and total bounds.
  qac.dram_total_bound =
      static_cast<double>(c.n) * c.dram_bound_ios * b * config.cycle * 0.6;
  obs::QosAuditor auditor(qac);
  for (const StreamSpec& s : streams) {
    auditor.AddStream(s.id, s.bit_rate,
                      c.dram_bound_ios * s.bit_rate * config.cycle);
  }
  auditor.Seal();
  config.sinks.auditor = &auditor;
  auto server = DirectStreamingServer::Create(&disk, streams, config);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  const Status st = server.value().Run(horizons, /*sessions=*/true);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<HorizonResult> out;
  for (std::size_t h = 0; h < horizons.size(); ++h) {
    out.push_back(Collect(server.value(), h));
  }
  if (auditor_total != nullptr) *auditor_total = auditor.total_violations();
  return out;
}

/// The done time of the `k`-th IO completion of `c`'s run, read from a
/// traced run (the lane path applies completions at the inline path's
/// times).
Seconds DoneTime(const HorizonCase& c, std::size_t k) {
  device::DiskDrive disk = Future();
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(c.n, b, model::DiskProfile(disk, c.n));
  EXPECT_TRUE(cycle.ok());
  sim::TraceLog trace;
  DirectServerConfig config;
  config.cycle = cycle.value() * c.cycle_factor;
  config.deterministic = c.deterministic;
  config.best_effort_io = c.best_effort_io;
  config.seed = 5;
  config.sinks.trace = &trace;
  auto streams = Spread(c.n, b, disk.Capacity(), 2 * b * cycle.value());
  if (c.writes) {
    for (std::size_t i = 0; i < streams.size(); i += 3) {
      streams[i].direction = StreamDirection::kWrite;
    }
  }
  auto server = DirectStreamingServer::Create(&disk, streams, config);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(server.value().Run(20.0).ok());
  const std::vector<sim::TraceRecord> done =
      trace.Filter(sim::TraceKind::kIoCompleted);
  EXPECT_GT(done.size(), k);
  return done.size() > k ? done[k].time : 0.0;
}

/// The start time of cycle `k` of an overrun-free run, summed the way
/// the server schedules it.
Seconds CycleStart(const HorizonCase& c, int k) {
  device::DiskDrive disk = Future();
  auto cycle = model::IoCycleLength(c.n, 1 * kMBps,
                                    model::DiskProfile(disk, c.n));
  EXPECT_TRUE(cycle.ok());
  const Seconds t = cycle.value() * c.cycle_factor;
  Seconds start = 0;
  for (int i = 0; i < k; ++i) start = start + t;
  return start;
}

// One run over several horizons reports each horizon bit for bit as a
// separate Run(horizon): over several counts, with overruns, underflows,
// recordings, best-effort IOs and audited cycle and DRAM violations, and
// with horizons inside the first cycle, mid-cycle, exactly on a cycle
// boundary (where the playback starts due at the boundary count) and
// exactly at an IO's done time (where that IO counts, also when it is the
// first IO done past an earlier horizon).
TEST(DirectServerTest, MultiHorizonRunMatchesSeparateRuns) {
  const std::vector<HorizonCase> cases = {
      {.n = 7},
      {.n = 30, .writes = true, .dram_bound_ios = 0.5},
      {.n = 61, .cycle_factor = 0.5, .deterministic = false, .writes = true},
      {.n = 24, .deterministic = false, .best_effort_io = 256 * kKB,
       .dram_bound_ios = 0.7},
      {.n = 40, .cycle_factor = 0.3, .dram_bound_ios = 0.5},
  };
  for (const HorizonCase& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n));
    const Seconds t = CycleStart(c, 1);
    const std::size_t k = static_cast<std::size_t>(c.n) * 3 / 2;
    const Seconds done = DoneTime(c, k);
    // Past the IO before, so that IO is the first one done past the
    // first horizon and reaches the second one exactly.
    const Seconds just_before = 0.5 * (DoneTime(c, k - 1) + done);
    const std::vector<std::vector<Seconds>> sets = {
        {0.4 * t, 1.7 * t, CycleStart(c, 3), 5.5 * t},
        {0.1 * t, 0.2 * t, 0.3 * t},
        {CycleStart(c, 2), CycleStart(c, 4), 20.0},
        {0.2 * t, done, 20.0},
        {just_before, done, 20.0},
        {2.5 * t},
    };
    for (const std::vector<Seconds>& horizons : sets) {
      std::int64_t multi_total = 0;
      const std::vector<HorizonResult> multi =
          RunCase(c, horizons, &multi_total);
      for (std::size_t h = 0; h < horizons.size(); ++h) {
        SCOPED_TRACE("horizon " + std::to_string(horizons[h]));
        std::int64_t total = 0;
        const HorizonResult alone =
            RunCase(c, std::span(horizons).subspan(h, 1), &total).front();
        EXPECT_TRUE(multi[h].report == alone.report);
        EXPECT_EQ(multi[h].report.qos.violations, alone.report.qos.violations);
        EXPECT_EQ(multi[h].report.ios_completed, alone.report.ios_completed);
        EXPECT_EQ(multi[h].report.peak_dram, alone.report.peak_dram);
        EXPECT_EQ(multi[h].sessions, alone.sessions);
        if (h + 1 == horizons.size()) {
          EXPECT_EQ(multi_total, total);
        }
      }
    }
  }
  // The cases reach what they are meant to compare.
  const HorizonCase& overrun = cases.back();
  const Seconds l = 0.4 * CycleStart(overrun, 1);
  const ServerReport r = RunCase(overrun, std::span(&l, 1)).front().report;
  EXPECT_GT(r.qos.violations, 0);
  const Seconds long_run = 20.0;
  const ServerReport lr =
      RunCase(overrun, std::span(&long_run, 1)).front().report;
  EXPECT_GT(lr.disk.overruns, 0);
  EXPECT_GT(lr.qos.underflow_events, 0);
}

// Without `sessions` the shorter horizons keep only their reports, which
// are the same.
TEST(DirectServerTest, MultiHorizonReportsNeedNoSessions) {
  device::DiskDrive disk = Future();
  DirectServerConfig config;
  config.cycle = 1.0;
  const auto streams = Spread(12, 1 * kMBps, disk.Capacity(), 4 * kMB);
  const std::vector<Seconds> horizons = {2.5, 4.0, 7.25};
  auto with = DirectStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(with.value().Run(horizons, /*sessions=*/true).ok());
  device::DiskDrive other = Future();
  auto without = DirectStreamingServer::Create(&other, streams, config);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(without.value().Run(horizons).ok());
  for (std::size_t h = 0; h < horizons.size(); ++h) {
    EXPECT_TRUE(with.value().report(h) == without.value().report(h));
    EXPECT_EQ(without.value().report(h).horizon, horizons[h]);
  }
}

TEST(DirectServerTest, MultiHorizonRunValidatesItsHorizons) {
  device::DiskDrive disk = Future();
  DirectServerConfig config;
  config.cycle = 1.0;
  const auto streams = Spread(4, 1 * kMBps, disk.Capacity(), 4 * kMB);
  auto server = DirectStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok());
  DirectStreamingServer& s = server.value();
  const std::vector<Seconds> none;
  const std::vector<Seconds> unsorted = {3.0, 2.0};
  const std::vector<Seconds> repeated = {2.0, 2.0};
  const std::vector<Seconds> zero = {0.0, 2.0};
  EXPECT_EQ(s.Run(none).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Run(unsorted).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Run(repeated).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Run(zero).code(), StatusCode::kInvalidArgument);

  // The traced lane path (any sink but an auditor) takes one horizon.
  sim::TraceLog trace;
  DirectServerConfig traced = config;
  traced.sinks.trace = &trace;
  auto lane = DirectStreamingServer::Create(&disk, streams, traced);
  ASSERT_TRUE(lane.ok());
  const std::vector<Seconds> two = {1.5, 3.0};
  EXPECT_EQ(lane.value().Run(two).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(lane.value().Run(std::span(two).last(1)).ok());

  ASSERT_TRUE(s.Run(two).ok());
  EXPECT_EQ(s.Run(two).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.report(1).horizon, 3.0);
}

TEST(DirectServerTest, ResetValidatesAndLeavesServerUnchanged) {
  DirectStreamingServer empty;
  EXPECT_FALSE(empty.Run(1.0).ok());

  device::DiskDrive disk = Future();
  DirectServerConfig config;
  config.cycle = 1.0;
  auto server = DirectStreamingServer::Create(
      &disk, Spread(4, 1 * kMBps, disk.Capacity(), 4 * kMB), config);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value().Reset(&disk, {}, config).ok());
  std::vector<StreamSpec> tiny{{0, 1 * kMBps, 0, 0.5 * kMB}};
  EXPECT_FALSE(server.value().Reset(&disk, tiny, config).ok());
  EXPECT_EQ(server.value().num_streams(), 4u);
  ASSERT_TRUE(server.value().Run(5.0).ok());
  EXPECT_GT(server.value().report().ios_completed, 0);
}

}  // namespace
}  // namespace memstream::server
