// End-to-end property sweep: for every server mode and a grid of
// workloads, the analytically-sized schedule must execute jitter-free
// and its simulated DRAM demand must stay within the double-buffering
// envelope of the analytic figure. This is the library's strongest
// claim, so it is checked wholesale rather than at hand-picked points.

#include <algorithm>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "server/media_server.h"

namespace memstream::server {
namespace {

struct SweepPoint {
  ServerMode mode;
  std::int64_t n;
  double bit_rate;
  std::int64_t k;
  model::CachePolicy policy;
};

// gtest prints each parameter into the test name; without a printer it
// dumps the raw bytes, padding included, which differ from build to build.
void PrintTo(const SweepPoint& p, std::ostream* os) {
  *os << ServerModeName(p.mode) << " n=" << p.n
      << " b=" << static_cast<std::int64_t>(p.bit_rate) << " k=" << p.k;
  if (p.mode == ServerMode::kMemsCache) {
    *os << " " << model::CachePolicyName(p.policy);
  }
}

std::string PointName(const ::testing::TestParamInfo<SweepPoint>& info) {
  const auto& p = info.param;
  std::string name = ServerModeName(p.mode);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  name += "_n" + std::to_string(p.n) + "_b" +
          std::to_string(static_cast<int>(p.bit_rate / 1000)) + "k" +
          std::to_string(p.k);
  if (p.mode == ServerMode::kMemsCache) {
    name += model::CachePolicyName(p.policy)[0] == 's' ? "_str" : "_rep";
  }
  return name;
}

class ServerSweep : public ::testing::TestWithParam<SweepPoint> {};

INSTANTIATE_TEST_SUITE_P(
    AllModes, ServerSweep,
    ::testing::Values(
        // Direct servers across the bit-rate decades.
        SweepPoint{ServerMode::kDirect, 100, 10e3, 0, {}},
        SweepPoint{ServerMode::kDirect, 100, 100e3, 0, {}},
        SweepPoint{ServerMode::kDirect, 80, 1e6, 0, {}},
        SweepPoint{ServerMode::kDirect, 15, 10e6, 0, {}},
        SweepPoint{ServerMode::kDirect, 200, 1e6, 0, {}},
        // MEMS buffer: bank sizes and loads.
        SweepPoint{ServerMode::kMemsBuffer, 12, 1e6, 1, {}},
        SweepPoint{ServerMode::kMemsBuffer, 60, 1e6, 2, {}},
        SweepPoint{ServerMode::kMemsBuffer, 90, 1e6, 3, {}},
        SweepPoint{ServerMode::kMemsBuffer, 120, 100e3, 2, {}},
        // MEMS cache: both policies, both bit-rates of Fig. 9.
        SweepPoint{ServerMode::kMemsCache, 40, 1e6, 2,
                   model::CachePolicy::kStriped},
        SweepPoint{ServerMode::kMemsCache, 40, 1e6, 2,
                   model::CachePolicy::kReplicated},
        SweepPoint{ServerMode::kMemsCache, 80, 100e3, 4,
                   model::CachePolicy::kStriped},
        SweepPoint{ServerMode::kMemsCache, 80, 100e3, 4,
                   model::CachePolicy::kReplicated}),
    PointName);

MediaServerConfig ConfigFor(const SweepPoint& p, Seconds duration) {
  MediaServerConfig config;
  config.mode = p.mode;
  config.disk = device::FutureDisk2007();
  config.disk.inner_rate = config.disk.outer_rate;
  config.k = std::max<std::int64_t>(p.k, 1);
  config.cache_policy = p.policy;
  config.cached_fraction_of_streams = 0.5;
  config.num_streams = p.n;
  config.bit_rate = p.bit_rate;
  config.sim_duration = duration;
  return config;
}

TEST_P(ServerSweep, AnalyticSizingExecutesJitterFree) {
  auto result = RunMediaServer(ConfigFor(GetParam(), 25));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().qos.underflow_events, 0);
  EXPECT_DOUBLE_EQ(result.value().qos.underflow_time, 0.0);
  EXPECT_EQ(result.value().cycle_overruns, 0);
  EXPECT_GT(result.value().ios_completed, 0);
  // Double-buffered execution uses at most ~2x the analytic DRAM (plus
  // pipeline slack in buffer mode).
  EXPECT_LE(result.value().sim_peak_dram,
            2.5 * result.value().analytic_dram_total)
      << "peak " << result.value().sim_peak_dram << " vs analytic "
      << result.value().analytic_dram_total;
}

TEST_P(ServerSweep, DeterministicReplay) {
  // Two runs of one configuration agree on every reported quantity,
  // bit for bit, in every mode.
  const MediaServerConfig config = ConfigFor(GetParam(), 10);
  auto a = RunMediaServer(config);
  auto b = RunMediaServer(config);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const MediaServerResult& x = a.value();
  const MediaServerResult& y = b.value();
  EXPECT_GT(x.ios_completed, 0);
  EXPECT_EQ(x.analytic_dram_total, y.analytic_dram_total);
  EXPECT_EQ(x.disk_cycle, y.disk_cycle);
  EXPECT_EQ(x.mems_cycle, y.mems_cycle);
  EXPECT_EQ(x.qos.underflow_events, y.qos.underflow_events);
  EXPECT_EQ(x.qos.underflow_time, y.qos.underflow_time);
  EXPECT_EQ(x.qos.overflow_events, y.qos.overflow_events);
  EXPECT_EQ(x.qos.overflow_time, y.qos.overflow_time);
  EXPECT_EQ(x.qos.violations, y.qos.violations);
  EXPECT_EQ(x.cycle_overruns, y.cycle_overruns);
  EXPECT_EQ(x.sim_peak_dram, y.sim_peak_dram);
  EXPECT_EQ(x.disk_utilization, y.disk_utilization);
  EXPECT_EQ(x.mems_utilization, y.mems_utilization);
  EXPECT_EQ(x.ios_completed, y.ios_completed);
  ASSERT_NE(x.auditor, nullptr);
  ASSERT_NE(y.auditor, nullptr);
  EXPECT_EQ(x.auditor->disk_cycles_audited(), y.auditor->disk_cycles_audited());
  EXPECT_EQ(x.auditor->mems_cycles_audited(), y.auditor->mems_cycles_audited());
  EXPECT_EQ(x.auditor->total_violations(), y.auditor->total_violations());
}

}  // namespace
}  // namespace memstream::server
