#include "server/mems_pipeline_server.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/mems_buffer.h"
#include "model/profiles.h"

namespace memstream::server {
namespace {

// Validation disks are uniform-rate: the analytical model (like the
// paper) uses a single R_disk, so the executable check must not be
// polluted by zoned-rate variation.
device::DiskDrive UniformFutureDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  auto disk = device::DiskDrive::Create(p);
  EXPECT_TRUE(disk.ok());
  return std::move(disk).value();
}

std::vector<device::MemsDevice> G3Bank(std::int64_t k) {
  std::vector<device::MemsDevice> bank;
  for (std::int64_t i = 0; i < k; ++i) {
    device::MemsParameters params = device::MemsG3();
    params.name = "MEMS" + std::to_string(i);
    auto dev = device::MemsDevice::Create(params);
    EXPECT_TRUE(dev.ok());
    bank.push_back(std::move(dev).value());
  }
  return bank;
}

std::vector<StreamSpec> Spread(std::int64_t n, BytesPerSecond bit_rate,
                               Bytes capacity, Bytes min_extent) {
  std::vector<StreamSpec> streams;
  const Bytes stride = capacity * 0.9 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    streams.push_back(
        {i, bit_rate, stride * static_cast<double>(i),
         std::max(min_extent, stride)});
  }
  return streams;
}

struct Sized {
  MemsPipelineConfig config;
  model::MemsBufferSizing sizing;
};

Sized SizeWithTheorem2(const device::DiskDrive& disk, std::int64_t n,
                       BytesPerSecond b, std::int64_t k) {
  model::MemsBufferParams params;
  params.k = k;
  params.disk = model::DiskProfile(disk, n);
  params.mems = model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
  auto range = model::FeasibleTdiskRange(n, b, params);
  EXPECT_TRUE(range.ok()) << range.status().ToString();
  const Seconds t_disk =
      std::min(range.value().lower * 1.5, range.value().upper);
  auto sizing = model::SolveMemsBuffer(n, b, params, t_disk);
  EXPECT_TRUE(sizing.ok()) << sizing.status().ToString();

  Sized out;
  out.sizing = sizing.value();
  out.config.t_disk = sizing.value().t_disk;
  out.config.t_mems = sizing.value().t_mems_snapped;
  return out;
}

// The paper's Fig. 4 scenario: N = 10 streams through a single MEMS
// buffer device; and Fig. 5: N = 45 streams across a k = 3 bank. In both
// cases Theorem 2's sizing must execute without underflow.
TEST(PipelineTest, Fig4SingleDeviceTenStreams) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 10;
  const BytesPerSecond b = 1 * kMBps;
  Sized sized = SizeWithTheorem2(disk, n, b, 1);
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(1),
      Spread(n, b, disk.Capacity(), 2 * b * sized.config.t_disk),
      sized.config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(60.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_EQ(report.qos.underflow_events, 0);
  EXPECT_DOUBLE_EQ(report.qos.underflow_time, 0.0);
  EXPECT_EQ(report.disk.overruns, 0);
  EXPECT_EQ(report.mems.overruns, 0);
  EXPECT_GT(report.disk.cycles, 3);
  EXPECT_GT(report.mems.cycles, report.disk.cycles);
}

TEST(PipelineTest, Fig5ThreeDeviceBank) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 45;
  const BytesPerSecond b = 1 * kMBps;
  Sized sized = SizeWithTheorem2(disk, n, b, 3);
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(3),
      Spread(n, b, disk.Capacity(), 2 * b * sized.config.t_disk),
      sized.config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(60.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_EQ(report.qos.underflow_events, 0);
  EXPECT_DOUBLE_EQ(report.qos.underflow_time, 0.0);
  EXPECT_EQ(report.mems.overruns, 0);
  // All 45 streams play.
  for (std::size_t i = 0; i < server.value().num_streams(); ++i) {
    EXPECT_GT(server.value().session(i).total_deposited(), 0.0)
        << "stream " << i;
  }
}

TEST(PipelineTest, MemsOccupancyStaysWithinEq7Bound) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 20;
  const BytesPerSecond b = 1 * kMBps;
  Sized sized = SizeWithTheorem2(disk, n, b, 2);
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(2),
      Spread(n, b, disk.Capacity(), 2 * b * sized.config.t_disk),
      sized.config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(60.0).ok());
  // Per-device occupancy must stay within the device capacity, and in
  // fact within ~one device's share of the Eq. 7 budget.
  EXPECT_LE(server.value().report().peak_mems_occupancy, 10 * kGB);
  EXPECT_GT(server.value().report().peak_mems_occupancy, 0.0);
}

TEST(PipelineTest, DramDemandNearAnalyticSizing) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 30;
  const BytesPerSecond b = 1 * kMBps;
  Sized sized = SizeWithTheorem2(disk, n, b, 2);
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(2),
      Spread(n, b, disk.Capacity(), 2 * b * sized.config.t_disk),
      sized.config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(60.0).ok());
  // Double-buffered consumption keeps at most ~2 MEMS IOs per stream in
  // DRAM: peak demand within 2x the schedulable sizing (plus slack).
  const Bytes analytic = static_cast<double>(n) *
                         sized.sizing.s_mems_dram_schedulable;
  EXPECT_LE(server.value().report().peak_dram, 2.2 * analytic);
  EXPECT_GT(server.value().report().peak_dram, 0.3 * analytic);
}

TEST(PipelineTest, UndersizedMemsCycleUnderflows) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 20;
  const BytesPerSecond b = 1 * kMBps;
  Sized sized = SizeWithTheorem2(disk, n, b, 1);
  // Starve the DRAM side: reads far smaller than the steady-state demand.
  sized.config.t_mems = sized.config.t_mems * 0.05;
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(1),
      Spread(n, b, disk.Capacity(), 2 * b * sized.config.t_disk),
      sized.config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(60.0).ok());
  EXPECT_GT(server.value().report().mems.overruns +
                server.value().report().qos.underflow_events,
            0);
}

TEST(PipelineTest, SteadyStateBytesBalance) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 12;
  const BytesPerSecond b = 1 * kMBps;
  Sized sized = SizeWithTheorem2(disk, n, b, 2);
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(2),
      Spread(n, b, disk.Capacity(), 2 * b * sized.config.t_disk),
      sized.config);
  ASSERT_TRUE(server.ok());
  const Seconds horizon = 120.0;
  ASSERT_TRUE(server.value().Run(horizon).ok());
  // §3.1: in the steady state, data written to the MEMS device equals
  // data read from it; each stream must have received ~bit_rate*horizon
  // (minus the pipeline fill).
  for (std::size_t i = 0; i < server.value().num_streams(); ++i) {
    const Bytes got = server.value().session(i).total_deposited();
    EXPECT_GT(got, b * horizon * 0.8) << "stream " << i;
    EXPECT_LT(got, b * horizon * 1.2) << "stream " << i;
  }
}

// The Fig. 5 bookkeeping, asserted from the trace: with N = 45 streams
// over k = 3 devices, each device receives exactly N/k = 15 disk->MEMS
// writes per steady-state disk cycle, and every third stream lands on
// the same device.
TEST(PipelineTest, Fig5TraceShowsRoundRobinRouting) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 45;
  const BytesPerSecond b = 1 * kMBps;
  Sized sized = SizeWithTheorem2(disk, n, b, 3);
  sim::TraceLog trace;
  sized.config.sinks.trace = &trace;
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(3),
      Spread(n, b, disk.Capacity(), 2 * b * sized.config.t_disk),
      sized.config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Run(sized.config.t_disk * 6).ok());

  // Steady-state window: the 5th disk cycle.
  const Seconds w0 = sized.config.t_disk * 4;
  const Seconds w1 = w0 + sized.config.t_disk;
  std::map<std::string, int> writes_per_device;
  std::map<std::string, std::set<std::int64_t>> streams_per_device;
  for (const auto& r : trace.records()) {
    if (r.time < w0 || r.time >= w1) continue;
    if (r.kind != sim::TraceKind::kIoCompleted) continue;
    if (r.detail != "disk->MEMS write") continue;
    writes_per_device[r.actor] += 1;
    streams_per_device[r.actor].insert(r.stream_id);
  }
  ASSERT_EQ(writes_per_device.size(), 3u);
  for (const auto& [device_name, count] : writes_per_device) {
    EXPECT_EQ(count, 15) << device_name;
  }
  // Round-robin: stream i lives on device i mod 3.
  for (const auto& [device_name, ids] : streams_per_device) {
    std::set<std::int64_t> residues;
    for (auto id : ids) residues.insert(id % 3);
    EXPECT_EQ(residues.size(), 1u)
        << device_name << " serves streams of mixed residue";
  }
}

// The §3.1.2 striped-IO placement, executed: sized with the striped
// variant of Theorem 2 it must run jitter-free, at the cost of a ~k x
// longer MEMS cycle (and hence DRAM) than round-robin routing.
TEST(PipelineTest, StripedPlacementJitterFreeAtItsOwnSizing) {
  device::DiskDrive disk = UniformFutureDisk();
  const std::int64_t n = 40;
  const BytesPerSecond b = 1 * kMBps;
  const std::int64_t k = 4;

  model::MemsBufferParams params;
  params.k = k;
  params.disk = model::DiskProfile(disk, n);
  params.mems = model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
  params.placement = model::BufferPlacement::kStripedIos;
  auto range = model::FeasibleTdiskRange(n, b, params);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  auto sizing = model::SolveMemsBuffer(
      n, b, params,
      std::min(range.value().lower * 1.5, range.value().upper));
  ASSERT_TRUE(sizing.ok()) << sizing.status().ToString();

  MemsPipelineConfig config;
  config.t_disk = sizing.value().t_disk;
  config.t_mems = sizing.value().t_mems_snapped;
  config.placement = model::BufferPlacement::kStripedIos;
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(k),
      Spread(n, b, disk.Capacity(), 2 * b * config.t_disk), config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(60.0).ok());

  const ServerReport& report = server.value().report();
  EXPECT_EQ(report.qos.underflow_events, 0);
  EXPECT_EQ(report.mems.overruns, 0);
  EXPECT_GT(report.mems.cycles, 0);
  for (std::size_t i = 0; i < server.value().num_streams(); ++i) {
    EXPECT_GT(server.value().session(i).total_deposited(), 0.0);
  }

  // The striped cycle must be substantially longer than the round-robin
  // cycle at the same T_disk (the analytic ~k x penalty, executed).
  model::MemsBufferParams rr = params;
  rr.placement = model::BufferPlacement::kRoundRobinStreams;
  auto rr_sizing = model::SolveMemsBuffer(n, b, rr, sizing.value().t_disk);
  ASSERT_TRUE(rr_sizing.ok());
  EXPECT_GT(sizing.value().t_mems, 2.0 * rr_sizing.value().t_mems);
}

TEST(PipelineTest, CreateValidatesCapacityAgainstCondition7) {
  device::DiskDrive disk = UniformFutureDisk();
  MemsPipelineConfig config;
  config.t_disk = 10000.0;  // absurd cycle: slots cannot hold 2 IOs
  config.t_mems = 100.0;
  auto server = MemsPipelineServer::Create(
      &disk, G3Bank(1), Spread(4, 1 * kMBps, disk.Capacity(), 100 * kGB),
      config);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInfeasible);
}

TEST(PipelineTest, CreateRejectsTmemsAboveTdisk) {
  device::DiskDrive disk = UniformFutureDisk();
  MemsPipelineConfig config;
  config.t_disk = 1.0;
  config.t_mems = 2.0;
  EXPECT_FALSE(MemsPipelineServer::Create(
                   &disk, G3Bank(1),
                   Spread(4, 1 * kMBps, disk.Capacity(), 100 * kMB), config)
                   .ok());
}

}  // namespace
}  // namespace memstream::server
