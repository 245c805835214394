#include "obs/qos_auditor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "device/device_catalog.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "obs/metrics.h"
#include "server/edf_server.h"
#include "server/media_server.h"
#include "server/timecycle_server.h"
#include "sim/trace.h"

namespace memstream::obs {
namespace {

// ---------------------------------------------------------------------
// Unit behaviour of the auditor itself.
// ---------------------------------------------------------------------

TEST(QosAuditorTest, CleanCyclesProduceNoViolations) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  QosAuditor auditor(config);
  auditor.AddStream(0, 1 * kMBps, 2 * kMB, QosDomain::kDisk);
  auditor.AddStream(1, 1 * kMBps, 2 * kMB, QosDomain::kDisk);
  auditor.Seal();

  for (int cycle = 0; cycle < 5; ++cycle) {
    auditor.RecordIo(0, 1 * kMB);
    auditor.RecordIo(1, 1 * kMB);
    auditor.RecordDramLevel(0, cycle + 0.5, 1.5 * kMB);
    auditor.RecordDramLevel(1, cycle + 0.5, 1.5 * kMB);
    auditor.EndDiskCycle(cycle, 0.8);
  }
  EXPECT_EQ(auditor.total_violations(), 0);
  EXPECT_EQ(auditor.disk_cycles_audited(), 5);
}

TEST(QosAuditorTest, DiskCycleOverrunIsReported) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  QosAuditor auditor(config);
  auditor.AddStream(0, 1 * kMBps, 0, QosDomain::kNone);
  auditor.Seal();

  auditor.EndDiskCycle(0, 1.25);  // busy 1.25s in a 1s cycle
  ASSERT_EQ(auditor.total_violations(), 1);
  const QosViolation& v = auditor.violations()[0];
  EXPECT_EQ(v.invariant, QosInvariant::kDiskCycleOverrun);
  EXPECT_EQ(v.cycle_index, 0);
  EXPECT_DOUBLE_EQ(v.expected, 1.0);
  EXPECT_DOUBLE_EQ(v.observed, 1.25);
}

TEST(QosAuditorTest, MissingAndDuplicateIosAreReported) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  QosAuditor auditor(config);
  auditor.AddStream(7, 1 * kMBps, 0, QosDomain::kDisk);
  auditor.AddStream(8, 1 * kMBps, 0, QosDomain::kDisk);
  auditor.Seal();

  // Stream 7 gets two IOs, stream 8 none.
  auditor.RecordIo(0, 1 * kMB);
  auditor.RecordIo(0, 1 * kMB);
  auditor.EndDiskCycle(0, 0.5);

  ASSERT_EQ(auditor.total_violations(), 2);
  EXPECT_EQ(auditor.violations()[0].invariant, QosInvariant::kIoCount);
  EXPECT_EQ(auditor.violations()[0].stream_id, 7);
  EXPECT_DOUBLE_EQ(auditor.violations()[0].observed, 2.0);
  EXPECT_EQ(auditor.violations()[1].stream_id, 8);
  EXPECT_DOUBLE_EQ(auditor.violations()[1].observed, 0.0);
}

TEST(QosAuditorTest, WrongIoSizeIsReported) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  QosAuditor auditor(config);
  auditor.AddStream(3, 1 * kMBps, 0, QosDomain::kDisk);
  auditor.Seal();

  auditor.RecordIo(0, 0.5 * kMB);  // expected 1 MB
  ASSERT_GE(auditor.total_violations(), 1);
  const QosViolation& v = auditor.violations()[0];
  EXPECT_EQ(v.invariant, QosInvariant::kIoBytes);
  EXPECT_EQ(v.stream_id, 3);
  EXPECT_DOUBLE_EQ(v.expected, 1 * kMB);
  EXPECT_DOUBLE_EQ(v.observed, 0.5 * kMB);
}

TEST(QosAuditorTest, DramBoundExcursionReportsOncePerCrossing) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  QosAuditor auditor(config);
  auditor.AddStream(5, 1 * kMBps, 1 * kMB, QosDomain::kDisk);
  auditor.Seal();

  auditor.RecordDramLevel(0, 0.1, 1.5 * kMB);  // crosses the bound
  auditor.RecordDramLevel(0, 0.2, 1.6 * kMB);  // still inside: no repeat
  auditor.RecordDramLevel(0, 0.3, 0.5 * kMB);  // back under
  auditor.RecordDramLevel(0, 0.4, 1.2 * kMB);  // second excursion
  EXPECT_EQ(auditor.total_violations(), 2);
  EXPECT_EQ(auditor.violations()[0].invariant, QosInvariant::kDramBound);
  EXPECT_EQ(auditor.violations()[0].stream_id, 5);
}

TEST(QosAuditorTest, TotalDramBudgetIsAudited) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.dram_total_bound = 3 * kMB;
  QosAuditor auditor(config);
  auditor.AddStream(0, 1 * kMBps, 0, QosDomain::kDisk);
  auditor.AddStream(1, 1 * kMBps, 0, QosDomain::kDisk);
  auditor.Seal();

  auditor.RecordDramLevel(0, 0.1, 2 * kMB);
  EXPECT_EQ(auditor.total_violations(), 0);
  auditor.RecordDramLevel(1, 0.2, 2 * kMB);  // sum 4 MB > 3 MB
  ASSERT_EQ(auditor.total_violations(), 1);
  EXPECT_EQ(auditor.violations()[0].invariant,
            QosInvariant::kDramTotalBound);
}

TEST(QosAuditorTest, SealChecksStorageBoundEq7) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.mems_cycle = 0.5;
  config.nested_cycles = true;
  config.mems_devices = 2;
  config.mems_device_capacity = 1 * kMB;  // 2 MB bank
  QosAuditor auditor(config);
  // 2 * T_disk * (2 MB/s) = 4 MB > 2 MB bank.
  auditor.AddStream(0, 1 * kMBps, 0, QosDomain::kDisk);
  auditor.AddStream(1, 1 * kMBps, 0, QosDomain::kDisk);
  auditor.Seal();

  ASSERT_EQ(auditor.total_violations(), 1);
  EXPECT_EQ(auditor.violations()[0].invariant,
            QosInvariant::kMemsStorageBound);
  EXPECT_DOUBLE_EQ(auditor.violations()[0].expected, 2 * kMB);
  EXPECT_DOUBLE_EQ(auditor.violations()[0].observed, 4 * kMB);
}

TEST(QosAuditorTest, SealChecksCycleNestingEq8) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.mems_cycle = 0.37;  // N * T_mems / T_disk = 1.11: not integer
  config.nested_cycles = true;
  QosAuditor auditor(config);
  for (int i = 0; i < 3; ++i) {
    auditor.AddStream(i, 1 * kMBps, 0, QosDomain::kDisk);
  }
  auditor.Seal();

  ASSERT_EQ(auditor.total_violations(), 1);
  EXPECT_EQ(auditor.violations()[0].invariant, QosInvariant::kCycleNesting);
}

TEST(QosAuditorTest, ViolationAppendsTraceAnchorWithGlobalIndex) {
  sim::TraceLog log(8);
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.trace = &log;
  QosAuditor auditor(config);
  auditor.AddStream(0, 1 * kMBps, 0, QosDomain::kNone);
  auditor.Seal();

  log.Append({0.5, sim::TraceKind::kNote, "x", -1, 0, "before"});
  auditor.EndDiskCycle(0, 2.0);

  ASSERT_EQ(auditor.total_violations(), 1);
  const QosViolation& v = auditor.violations()[0];
  EXPECT_EQ(v.trace_index, 1);  // one record was already in the log
  const auto& records = log.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.back().kind, sim::TraceKind::kNote);
  EXPECT_NE(records.back().detail.find("QOS"), std::string::npos);
  EXPECT_NE(records.back().detail.find("disk_cycle_overrun"),
            std::string::npos);
}

TEST(QosAuditorTest, RetentionCapKeepsCountingPastTheCap) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.max_violations = 2;
  QosAuditor auditor(config);
  auditor.AddStream(0, 1 * kMBps, 0, QosDomain::kNone);
  auditor.Seal();

  for (int i = 0; i < 5; ++i) auditor.EndDiskCycle(i, 2.0);
  EXPECT_EQ(auditor.total_violations(), 5);
  EXPECT_EQ(auditor.violations().size(), 2u);
}

/// Registers streams 10, 11, 12 in bulk.
void AddThreeStreams(QosAuditor* auditor) {
  const std::vector<std::int32_t> ids = {10, 11, 12};
  auditor->AddStreams(ids, 1 * kMBps, 2 * kMB);
}

/// Seals the auditor and drives its three streams through cycles that
/// breach the IO-count, IO-size, cycle-slack, per-stream and total DRAM
/// bounds.
void DriveViolatingRun(QosAuditor* auditor) {
  auditor->Seal();
  for (int cycle = 0; cycle < 4; ++cycle) {
    auditor->RecordIo(0, 1 * kMB);
    auditor->RecordIo(1, cycle == 2 ? 0.5 * kMB : 1 * kMB);
    if (cycle != 1) auditor->RecordIo(2, 1 * kMB);
    auditor->RecordDramLevel(0, cycle + 0.5, (cycle == 3 ? 2.5 : 1.5) * kMB);
    auditor->RecordDramLevel(1, cycle + 0.5, 1.5 * kMB);
    auditor->EndDiskCycle(cycle, cycle == 1 ? 1.5 : 0.5);
  }
}

std::vector<std::string> ViolationTexts(const QosAuditor& auditor) {
  std::vector<std::string> out;
  for (const QosViolation& v : auditor.violations()) {
    out.push_back(v.ToString());
  }
  return out;
}

// A reused auditor: Reset() after a run with violations leaves exactly
// what a freshly constructed one reports for the next run.
TEST(QosAuditorTest, ResetAfterRunMatchesFreshAuditor) {
  QosAuditorConfig dirty_config;
  dirty_config.disk_cycle = 2.0;
  dirty_config.mems_cycle = 0.5;
  dirty_config.max_violations = 1;
  QosAuditor reused(dirty_config);
  for (std::int64_t i = 0; i < 8; ++i) {
    reused.AddStream(i, 2 * kMBps, 1 * kMB, QosDomain::kMems, i % 2);
  }
  reused.Seal();
  reused.RecordDramLevel(3, 0.2, 4 * kMB);
  reused.EndMemsCycle(1, 0, 0.9);
  reused.EndDiskCycle(0, 3.0);
  ASSERT_GT(reused.total_violations(), 1);

  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.dram_total_bound = 3.5 * kMB;
  reused.Reset(config);
  EXPECT_EQ(reused.num_streams(), 0u);
  EXPECT_FALSE(reused.sealed());
  EXPECT_EQ(reused.total_violations(), 0);
  AddThreeStreams(&reused);
  DriveViolatingRun(&reused);
  QosAuditor fresh(config);
  AddThreeStreams(&fresh);
  DriveViolatingRun(&fresh);

  ASSERT_GT(fresh.total_violations(), 4);
  EXPECT_EQ(reused.total_violations(), fresh.total_violations());
  EXPECT_EQ(reused.disk_cycles_audited(), fresh.disk_cycles_audited());
  EXPECT_EQ(reused.mems_cycles_audited(), fresh.mems_cycles_audited());
  EXPECT_EQ(reused.num_streams(), fresh.num_streams());
  EXPECT_EQ(reused.Summary(), fresh.Summary());
  EXPECT_EQ(ViolationTexts(reused), ViolationTexts(fresh));
}

// AddStreams() is AddStream() for a run of ids at once.
TEST(QosAuditorTest, AddStreamsMatchesAddStream) {
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.dram_total_bound = 3.5 * kMB;
  QosAuditor bulk(config);
  AddThreeStreams(&bulk);
  DriveViolatingRun(&bulk);
  QosAuditor single(config);
  for (const std::int64_t id : {10, 11, 12}) {
    single.AddStream(id, 1 * kMBps, 2 * kMB, QosDomain::kDisk);
  }
  DriveViolatingRun(&single);
  EXPECT_EQ(bulk.num_streams(), 3u);
  EXPECT_EQ(ViolationTexts(bulk), ViolationTexts(single));
  EXPECT_EQ(bulk.total_violations(), single.total_violations());
}

TEST(QosAuditorTest, MarginsLandInMetricsHistograms) {
  MetricsRegistry metrics;
  QosAuditorConfig config;
  config.disk_cycle = 1.0;
  config.metrics = &metrics;
  QosAuditor auditor(config);
  auditor.AddStream(0, 1 * kMBps, 2 * kMB, QosDomain::kDisk);
  auditor.Seal();

  auditor.RecordIo(0, 1 * kMB);
  auditor.RecordDramLevel(0, 0.5, 1 * kMB);
  auditor.EndDiskCycle(0, 0.7);

  const auto samples = metrics.Snapshot();
  bool saw_slack = false;
  bool saw_headroom = false;
  for (const auto& s : samples) {
    if (s.name == "qos.disk.cycle_slack_ms") saw_slack = true;
    if (s.name == "qos.dram_headroom_frac") saw_headroom = true;
  }
  EXPECT_TRUE(saw_slack);
  EXPECT_TRUE(saw_headroom);
}

// ---------------------------------------------------------------------
// Wired through the simulated servers.
// ---------------------------------------------------------------------

device::DiskDrive UniformDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  auto disk = device::DiskDrive::Create(p);
  EXPECT_TRUE(disk.ok());
  return std::move(disk).value();
}

std::vector<server::StreamSpec> Spread(std::int64_t n,
                                       BytesPerSecond bit_rate,
                                       Bytes capacity, Bytes min_extent) {
  std::vector<server::StreamSpec> streams;
  const Bytes stride = capacity * 0.9 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    server::StreamSpec s;
    s.id = i;
    s.bit_rate = bit_rate;
    s.disk_offset = stride * static_cast<double>(i);
    s.extent = std::max(min_extent, stride);
    streams.push_back(s);
  }
  return streams;
}

TEST(QosAuditorServerTest, CreateRejectsMismatchedRegistration) {
  device::DiskDrive disk = UniformDisk();
  const std::int64_t n = 4;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());

  QosAuditorConfig qc;
  qc.disk_cycle = cycle.value();
  QosAuditor auditor(qc);
  auditor.AddStream(0, b, 0, QosDomain::kDisk);  // only one of four
  auditor.Seal();

  server::DirectServerConfig config;
  config.cycle = cycle.value();
  config.sinks.auditor = &auditor;
  auto server = server::DirectStreamingServer::Create(
      &disk, Spread(n, b, disk.Capacity(), 2 * b * cycle.value()), config);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

// The Theorem-1-sized direct schedule sustains a clean audit.
TEST(QosAuditorServerTest, AnalyticSizingAuditsCleanOnDirectServer) {
  device::DiskDrive disk = UniformDisk();
  const std::int64_t n = 20;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());
  const Bytes io = b * cycle.value();

  QosAuditorConfig qc;
  qc.disk_cycle = cycle.value();
  qc.dram_total_bound = static_cast<double>(n) * 2 * io;
  QosAuditor auditor(qc);
  auto streams = Spread(n, b, disk.Capacity(), 2 * io);
  for (const auto& s : streams) {
    auditor.AddStream(s.id, s.bit_rate, 2 * io, QosDomain::kDisk);
  }
  auditor.Seal();

  server::DirectServerConfig config;
  config.cycle = cycle.value();
  config.sinks.auditor = &auditor;
  auto server =
      server::DirectStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(30.0).ok());

  EXPECT_EQ(auditor.total_violations(), 0) << auditor.Summary();
  EXPECT_GT(auditor.disk_cycles_audited(), 10);
  EXPECT_EQ(server.value().report().qos.violations, 0);
}

// The acceptance scenario: seed a Theorem-2 violation by registering one
// stream with an undersized per-stream DRAM bound; the auditor must name
// that stream and the cycle of the first excursion.
TEST(QosAuditorServerTest, UndersizedBufferSeedsExactCounterExample) {
  device::DiskDrive disk = UniformDisk();
  const std::int64_t n = 8;
  const BytesPerSecond b = 1 * kMBps;
  auto cycle = model::IoCycleLength(n, b, model::DiskProfile(disk, n));
  ASSERT_TRUE(cycle.ok());
  const Bytes io = b * cycle.value();
  const std::int64_t seeded = 3;

  sim::TraceLog log;  // unbounded: the anchor's global index stays local
  QosAuditorConfig qc;
  qc.disk_cycle = cycle.value();
  qc.trace = &log;
  QosAuditor auditor(qc);
  auto streams = Spread(n, b, disk.Capacity(), 2 * io);
  for (const auto& s : streams) {
    // Stream `seeded` claims half an IO of DRAM: its very first deposit
    // (one full IO) must breach the bound.
    const Bytes bound = s.id == seeded ? 0.5 * io : 2 * io;
    auditor.AddStream(s.id, s.bit_rate, bound, QosDomain::kDisk);
  }
  auditor.Seal();

  server::DirectServerConfig config;
  config.cycle = cycle.value();
  config.sinks.auditor = &auditor;
  config.sinks.trace = &log;
  auto server = server::DirectStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(20.0).ok());

  ASSERT_GE(auditor.total_violations(), 1) << auditor.Summary();
  const QosViolation& v = auditor.violations()[0];
  EXPECT_EQ(v.invariant, QosInvariant::kDramBound);
  EXPECT_EQ(v.stream_id, seeded);
  // Deposits of the first cycle land while the auditor's cycle counter
  // already points at the next (open) disk cycle.
  EXPECT_EQ(v.cycle_index, 1);
  EXPECT_DOUBLE_EQ(v.expected, 0.5 * io);
  EXPECT_GE(v.observed, io * 0.99);
  // The counter-example points into the trace window.
  ASSERT_GE(v.trace_index, 0);
  const auto& records = log.records();
  const auto local = static_cast<std::size_t>(
      v.trace_index - log.dropped_records());
  ASSERT_LT(local, records.size());
  EXPECT_EQ(records[local].kind, sim::TraceKind::kNote);
  EXPECT_NE(records[local].detail.find("dram_bound"), std::string::npos);
}

// Default paper-parameter runs of every facade mode audit clean.
TEST(QosAuditorServerTest, DefaultFacadeRunsAuditClean) {
  for (const auto mode :
       {server::ServerMode::kDirect, server::ServerMode::kMemsBuffer,
        server::ServerMode::kMemsCache}) {
    server::MediaServerConfig config;
    config.mode = mode;
    config.sim_duration = 20;
    auto result = server::RunMediaServer(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result.value().auditor, nullptr);
    EXPECT_EQ(result.value().qos.violations, 0)
        << server::ServerModeName(mode) << ": "
        << result.value().auditor->Summary();
    EXPECT_GT(result.value().auditor->disk_cycles_audited(), 0)
        << server::ServerModeName(mode);
  }
}

TEST(QosAuditorServerTest, ReplicatedCacheAuditsClean) {
  server::MediaServerConfig config;
  config.mode = server::ServerMode::kMemsCache;
  config.cache_policy = model::CachePolicy::kReplicated;
  config.sim_duration = 20;
  auto result = server::RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result.value().auditor, nullptr);
  EXPECT_EQ(result.value().qos.violations, 0)
      << result.value().auditor->Summary();
  EXPECT_GT(result.value().auditor->mems_cycles_audited(), 0);
}

// EDF has no cycles: occupancy-only audit (domain kNone) stays clean on
// a feasible load and never trips the per-cycle checks.
TEST(QosAuditorServerTest, EdfOccupancyAuditIsClean) {
  device::DiskDrive disk = UniformDisk();
  const std::int64_t n = 10;
  const BytesPerSecond b = 1 * kMBps;
  const Seconds io_playback = 1.0;
  const Bytes io = b * io_playback;

  QosAuditorConfig qc;
  qc.disk_cycle = io_playback;  // enables the slack instrumentation only
  QosAuditor auditor(qc);
  auto streams = Spread(n, b, disk.Capacity(), 2 * io);
  for (const auto& s : streams) {
    // The EDF admission caps each buffer at 2 IOs plus a small epsilon.
    auditor.AddStream(s.id, s.bit_rate, 2.01 * io, QosDomain::kNone);
  }
  auditor.Seal();

  server::EdfServerConfig config;
  config.io_playback = io_playback;
  config.sinks.auditor = &auditor;
  auto server =
      server::EdfStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(20.0).ok());

  EXPECT_EQ(auditor.total_violations(), 0) << auditor.Summary();
  EXPECT_EQ(server.value().report().qos.violations, 0);
  EXPECT_EQ(server.value().report().qos.underflow_events, 0);
}

}  // namespace
}  // namespace memstream::obs
