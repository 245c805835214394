// Steady-state allocation discipline of the batched SoA cycle engines:
// after warm-up, an IO cycle on the fast path must perform zero heap
// allocations — the arena recycles last cycle's scratch and the
// structure-of-arrays stream state is sized at Create.
//
// The check uses the profiler's alloc counter (this binary replaces
// global operator new with a counting version, as in event_queue_test):
// each server's cycle PROF_SCOPE accumulates the allocations performed
// inside it. Running the same configuration for a short and a long
// horizon must record the *identical* alloc delta — every allocation is
// warm-up (first-cycle arena growth), and the extra steady-state cycles
// of the long run contribute exactly zero. In a profiler-off build
// (MEMSTREAM_PROFILE_ENABLED=0) the regions compile out; there the hook
// counts every allocation of the servers' whole Run() calls instead, and
// their completed IOs stand in for the region's run count.
//
// The traced variants attach a bounded TraceLog and check every event
// dispatch ("sim.event.dispatch": cycle bodies, completion-lane
// handlers, trace appends) the same way: completions are lane records rather than
// closures, and a warm trace ring overwrites records in place, so
// tracing adds no steady-state allocation either. The journaled variants
// attach a MetricsRegistry, TimelineRecorder, StreamJournal and
// SloMonitor to each server the same way. The EDF server has no cycles;
// its per-IO service region is checked instead. The farm's shard
// workspace is checked the same way across whole shard-epochs.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/profiler.h"
#include "device/device_catalog.h"
#include "farm/shard_workspace.h"
#include "farm/sharded_farm.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "obs/timeline.h"
#include "model/mems_buffer.h"
#include "model/mems_cache.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "fault/fault_plan.h"
#include "server/cache_server.h"
#include "server/edf_server.h"
#include "server/media_server.h"
#include "server/mems_pipeline_server.h"
#include "server/timecycle_server.h"
#include "sim/trace.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

// When these operators inline into gtest's test factory, GCC pairs the
// factory's `new` with the std::free inside the replaced delete and
// reports a mismatch; the operators below are a matched malloc/free
// pair, so the warning is spurious.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace memstream::server {
namespace {

std::int64_t CurrentAllocs() {
  return g_allocations.load(std::memory_order_relaxed);
}

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
    auto dev = device::MemsDevice::Create(device::MemsG3());
    EXPECT_TRUE(dev.ok());
    bank.push_back(std::move(dev).value());
  }
  return bank;
}

model::DeviceProfile G3Profile() {
  return model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
}

/// How often a measured region ran and what it allocated.
struct RegionTotals {
  std::int64_t count = 0;
  std::int64_t allocs = 0;
};

/// What the Run() calls made through RunServer() completed and
/// allocated since the last reset: the profiler-off stand-in for a
/// region's totals.
RegionTotals g_runs;

/// Runs `server` for `duration` and adds its IOs and the allocations
/// inside Run() to g_runs.
template <typename Server>
void RunServer(Server& server, Seconds duration) {
  const std::int64_t before = CurrentAllocs();
  const Status st = server.Run(duration);
  g_runs.allocs += CurrentAllocs() - before;
  ASSERT_TRUE(st.ok()) << st.ToString();
  g_runs.count += server.report().ios_completed;
}

#if MEMSTREAM_PROFILE_ENABLED

/// Count and alloc delta of every profile region named `name`, summed
/// over the (possibly nested) occurrences.
void Accumulate(const std::vector<prof::ProfileNode>& nodes,
                const std::string& name, RegionTotals* out) {
  for (const auto& node : nodes) {
    if (node.name == name) {
      out->count += node.count;
      out->allocs += node.alloc_delta;
    }
    Accumulate(node.children, name, out);
  }
}

RegionTotals Totals(const std::string& name) {
  RegionTotals out;
  Accumulate(prof::Profiler::Global().Snapshot().roots, name, &out);
  return out;
}

/// Runs `body(duration)` under a fresh profiler epoch and returns the
/// totals for `region`.
template <typename Body>
RegionTotals Profiled(const std::string& region, Seconds duration,
                      Body&& body) {
  auto& profiler = prof::Profiler::Global();
  profiler.Reset();
  profiler.SetAllocCounter(&CurrentAllocs);
  profiler.Enable();
  body(duration);
  profiler.Disable();
  RegionTotals totals = Totals(region);
  profiler.SetAllocCounter(nullptr);
  profiler.Reset();
  return totals;
}

#else

/// The regions compiled out: runs `body(duration)` and returns what its
/// Run() calls completed and allocated, setup excluded.
template <typename Body>
RegionTotals Profiled(const std::string&, Seconds duration, Body&& body) {
  g_runs = {};
  body(duration);
  return g_runs;
}

#endif  // MEMSTREAM_PROFILE_ENABLED

/// The steady-state-zero assertion: the long run must execute more
/// cycles than the short one while allocating not one byte more inside
/// the cycle region.
template <typename Body>
void ExpectSteadyStateAllocFree(const std::string& region, Seconds short_run,
                                Seconds long_run, Body&& body) {
#if !MEMSTREAM_PROFILE_ENABLED
  // A whole Run() also pays the first registration of names in sinks
  // shared across runs, and process-wide first uses; a warm-up run
  // takes them, so only what depends on the horizon is compared.
  Profiled(region, short_run, body);
#endif
  const RegionTotals a = Profiled(region, short_run, body);
  const RegionTotals b = Profiled(region, long_run, body);
  ASSERT_GT(a.count, 0) << region << " never ran";
  ASSERT_GT(b.count, a.count) << region << " did not scale with duration";
  EXPECT_EQ(b.allocs, a.allocs)
      << region << ": " << (b.allocs - a.allocs) << " steady-state heap "
      << "allocations across " << (b.count - a.count) << " extra cycles";
}

TEST(CycleAllocTest, DirectServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  ExpectSteadyStateAllocFree(
      "server.direct.cycle", 10.0, 60.0, [&](Seconds duration) {
        DirectServerConfig config;
        config.cycle = 0.5;
        std::vector<StreamSpec> streams;
        for (int i = 0; i < 8; ++i) {
          StreamSpec s;
          s.id = i;
          s.bit_rate = 1 * kMBps;
          s.disk_offset = static_cast<double>(i) * 10 * kGB;
          s.extent = 5 * kGB;
          streams.push_back(s);
        }
        auto srv = DirectStreamingServer::Create(&disk, streams, config);
        ASSERT_TRUE(srv.ok()) << srv.status().ToString();
        RunServer(srv.value(), duration);
      });
}

/// The stream sinks the journaled variants attach: they outlive both
/// horizons, so the long run registers nothing new, and every hook
/// StreamTelemetry drives (occupancy gauge, series point, journal IO and
/// underflow scan, SLO samples) must stay allocation-free.
struct StreamSinks {
  obs::MetricsRegistry metrics;
  obs::TimelineRecorder timelines;
  obs::StreamJournal journal;
  obs::SloMonitor slo;

  Sinks sinks() {
    return {.metrics = &metrics,
            .timelines = &timelines,
            .journal = &journal,
            .slo = &slo};
  }
  void ExpectFed(std::size_t streams) {
    EXPECT_EQ(journal.size(), streams);
    EXPECT_GE(timelines.size(), streams);
    ASSERT_NE(slo.Find("cycle_slack"), nullptr);
    EXPECT_GT(slo.Find("cycle_slack")->good(), 0);
    ASSERT_NE(slo.Find("underflow"), nullptr);
    EXPECT_GT(slo.Find("underflow")->good(), 0);
  }
};

TEST(CycleAllocTest, JournaledDirectServerSteadyStateAllocFree) {
  // Registration allocates at Create, but the steady-state cycle (which
  // applies untraced deposits inline) must stay exactly as
  // allocation-free as the unwired server.
  auto disk = UniformFutureDisk();
  StreamSinks sinks;
  for (const char* region : {"server.direct.cycle", "sim.event.dispatch"}) {
    ExpectSteadyStateAllocFree(region, 10.0, 60.0, [&](Seconds duration) {
      DirectServerConfig config;
      config.cycle = 0.5;
      config.sinks = sinks.sinks();
      std::vector<StreamSpec> streams;
      for (int i = 0; i < 8; ++i) {
        StreamSpec s;
        s.id = i;
        s.bit_rate = 1 * kMBps;
        s.disk_offset = static_cast<double>(i) * 10 * kGB;
        s.extent = 5 * kGB;
        s.direction = i == 7 ? StreamDirection::kWrite : StreamDirection::kRead;
        streams.push_back(s);
      }
      auto srv = DirectStreamingServer::Create(&disk, streams, config);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      RunServer(srv.value(), duration);
    });
  }
  sinks.ExpectFed(8);
}

TEST(CycleAllocTest, JournaledPipelineServerSteadyStateAllocFree) {
  // Deposits land in the MEMS lanes' handlers, inside
  // "sim.event.dispatch".
  auto disk = UniformFutureDisk();
  const std::int64_t n = 20;
  const BytesPerSecond b = 1 * kMBps;
  StreamSinks sinks;
  for (const auto placement : {model::BufferPlacement::kRoundRobinStreams,
                               model::BufferPlacement::kStripedIos}) {
    model::MemsBufferParams params;
    params.k = 2;
    params.disk = model::DiskProfile(disk, n);
    params.mems = G3Profile();
    params.placement = placement;
    auto range = model::FeasibleTdiskRange(n, b, params);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    auto sizing = model::SolveMemsBuffer(
        n, b, params,
        std::min(range.value().lower * 1.5, range.value().upper));
    ASSERT_TRUE(sizing.ok()) << sizing.status().ToString();
    MemsPipelineConfig config;
    config.t_disk = sizing.value().t_disk;
    config.t_mems = sizing.value().t_mems_snapped;
    config.placement = placement;
    config.sinks = sinks.sinks();
    const Bytes stride = disk.Capacity() * 0.9 / static_cast<double>(n);
    for (const char* region :
         {"server.pipeline.disk_cycle", "sim.event.dispatch"}) {
      ExpectSteadyStateAllocFree(region, 20.0, 80.0, [&](Seconds duration) {
        std::vector<StreamSpec> streams;
        for (std::int64_t i = 0; i < n; ++i) {
          StreamSpec s;
          s.id = i;
          s.bit_rate = b;
          s.disk_offset = stride * static_cast<double>(i);
          s.extent = std::max(stride, 4 * b * config.t_disk);
          streams.push_back(s);
        }
        auto srv =
            MemsPipelineServer::Create(&disk, G3Bank(2), streams, config);
        ASSERT_TRUE(srv.ok()) << srv.status().ToString();
        RunServer(srv.value(), duration);
      });
    }
  }
  sinks.ExpectFed(static_cast<std::size_t>(n));
}

TEST(CycleAllocTest, JournaledCacheServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  const std::int64_t n_disk = 4;
  const std::int64_t n_cache = 8;
  const std::int64_t k = 4;
  const BytesPerSecond b = 1 * kMBps;
  StreamSinks sinks;
  for (const auto policy :
       {model::CachePolicy::kReplicated, model::CachePolicy::kStriped}) {
    CacheServerConfig config;
    config.policy = policy;
    auto cycle =
        model::IoCycleLength(n_disk, b, model::DiskProfile(disk, n_disk));
    ASSERT_TRUE(cycle.ok());
    config.disk_cycle = cycle.value();
    auto s = model::CachePerStreamBuffer(n_cache, b, k, G3Profile(), policy);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    config.mems_cycle = s.value() / b;
    config.sinks = sinks.sinks();
    const Bytes disk_stride =
        disk.Capacity() * 0.9 / static_cast<double>(n_disk);
    const Bytes cache_stride = 10 * kGB * 0.9 / static_cast<double>(n_cache);
    for (const char* region :
         {"server.cache.disk_cycle", "sim.event.dispatch"}) {
      ExpectSteadyStateAllocFree(region, 15.0, 60.0, [&](Seconds duration) {
        std::vector<CacheStreamSpec> streams;
        for (std::int64_t i = 0; i < n_disk; ++i) {
          streams.push_back(
              {i, b, false, disk_stride * static_cast<double>(i),
               std::max(disk_stride, 2 * b * config.disk_cycle)});
        }
        for (std::int64_t i = 0; i < n_cache; ++i) {
          streams.push_back(
              {n_disk + i, b, true, cache_stride * static_cast<double>(i),
               std::max(cache_stride, 2 * b * config.mems_cycle)});
        }
        auto srv =
            CacheStreamingServer::Create(&disk, G3Bank(k), streams, config);
        ASSERT_TRUE(srv.ok()) << srv.status().ToString();
        RunServer(srv.value(), duration);
      });
    }
  }
  sinks.ExpectFed(static_cast<std::size_t>(n_disk + n_cache));
  ASSERT_NE(sinks.slo.Find("availability"), nullptr);
  EXPECT_GT(sinks.slo.Find("availability")->good(), 0);
}

TEST(CycleAllocTest, PipelineServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  const std::int64_t n = 20;
  const BytesPerSecond b = 1 * kMBps;
  model::MemsBufferParams params;
  params.k = 2;
  params.disk = model::DiskProfile(disk, n);
  params.mems = G3Profile();
  auto range = model::FeasibleTdiskRange(n, b, params);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  const Seconds t_disk =
      std::min(range.value().lower * 1.5, range.value().upper);
  auto sizing = model::SolveMemsBuffer(n, b, params, t_disk);
  ASSERT_TRUE(sizing.ok()) << sizing.status().ToString();
  MemsPipelineConfig config;
  config.t_disk = sizing.value().t_disk;
  config.t_mems = sizing.value().t_mems_snapped;
  const Bytes stride = disk.Capacity() * 0.9 / static_cast<double>(n);

  for (const char* region :
       {"server.pipeline.disk_cycle", "server.pipeline.mems_cycle"}) {
    ExpectSteadyStateAllocFree(region, 20.0, 80.0, [&](Seconds duration) {
      std::vector<StreamSpec> streams;
      for (std::int64_t i = 0; i < n; ++i) {
        StreamSpec s;
        s.id = i;
        s.bit_rate = b;
        s.disk_offset = stride * static_cast<double>(i);
        s.extent = std::max(stride, 4 * b * config.t_disk);
        streams.push_back(s);
      }
      auto srv =
          MemsPipelineServer::Create(&disk, G3Bank(2), streams, config);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      RunServer(srv.value(), duration);
    });
  }
}

TEST(CycleAllocTest, CacheServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  const std::int64_t n_disk = 4;
  const std::int64_t n_cache = 8;
  const std::int64_t k = 4;
  const BytesPerSecond b = 1 * kMBps;
  const auto policy = model::CachePolicy::kReplicated;

  CacheServerConfig config;
  config.policy = policy;
  auto cycle =
      model::IoCycleLength(n_disk, b, model::DiskProfile(disk, n_disk));
  ASSERT_TRUE(cycle.ok());
  config.disk_cycle = cycle.value();
  auto s = model::CachePerStreamBuffer(n_cache, b, k, G3Profile(), policy);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  config.mems_cycle = s.value() / b;

  const Bytes disk_stride =
      disk.Capacity() * 0.9 / static_cast<double>(n_disk);
  const Bytes cache_stride = 10 * kGB * 0.9 / static_cast<double>(n_cache);

  for (const char* region :
       {"server.cache.disk_cycle", "server.cache.replicated_mems_cycle"}) {
    ExpectSteadyStateAllocFree(region, 15.0, 60.0, [&](Seconds duration) {
      std::vector<CacheStreamSpec> streams;
      for (std::int64_t i = 0; i < n_disk; ++i) {
        streams.push_back({i, b, false,
                           disk_stride * static_cast<double>(i),
                           std::max(disk_stride, 2 * b * config.disk_cycle)});
      }
      for (std::int64_t i = 0; i < n_cache; ++i) {
        streams.push_back(
            {n_disk + i, b, true, cache_stride * static_cast<double>(i),
             std::max(cache_stride, 2 * b * config.mems_cycle)});
      }
      auto srv =
          CacheStreamingServer::Create(&disk, G3Bank(k), streams, config);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      RunServer(srv.value(), duration);
    });
  }
}

/// Records a bounded log keeps in the traced variants: small enough that
/// the ring wraps within the short run.
constexpr std::size_t kTraceCapacity = 128;

TEST(CycleAllocTest, TracedDirectServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  for (const char* region : {"server.direct.cycle", "sim.event.dispatch"}) {
    ExpectSteadyStateAllocFree(region, 10.0, 60.0, [&](Seconds duration) {
      DirectServerConfig config;
      config.cycle = 0.5;
      std::vector<StreamSpec> streams;
      for (int i = 0; i < 8; ++i) {
        StreamSpec s;
        s.id = i;
        s.bit_rate = 1 * kMBps;
        s.disk_offset = static_cast<double>(i) * 10 * kGB;
        s.extent = 5 * kGB;
        s.direction = i == 7 ? StreamDirection::kWrite : StreamDirection::kRead;
        streams.push_back(s);
      }
      sim::TraceLog trace(kTraceCapacity);
      config.sinks.trace = &trace;
      auto srv = DirectStreamingServer::Create(&disk, streams, config);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      RunServer(srv.value(), duration);
      ASSERT_GT(trace.dropped_records(), 0);
    });
  }
}

TEST(CycleAllocTest, TracedPipelineServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  const std::int64_t n = 20;
  const BytesPerSecond b = 1 * kMBps;
  for (const auto placement : {model::BufferPlacement::kRoundRobinStreams,
                               model::BufferPlacement::kStripedIos}) {
    model::MemsBufferParams params;
    params.k = 2;
    params.disk = model::DiskProfile(disk, n);
    params.mems = G3Profile();
    params.placement = placement;
    auto range = model::FeasibleTdiskRange(n, b, params);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    auto sizing = model::SolveMemsBuffer(
        n, b, params,
        std::min(range.value().lower * 1.5, range.value().upper));
    ASSERT_TRUE(sizing.ok()) << sizing.status().ToString();
    MemsPipelineConfig config;
    config.t_disk = sizing.value().t_disk;
    config.t_mems = sizing.value().t_mems_snapped;
    config.placement = placement;
    const Bytes stride = disk.Capacity() * 0.9 / static_cast<double>(n);
    for (const char* region : {"server.pipeline.disk_cycle", "sim.event.dispatch"}) {
      ExpectSteadyStateAllocFree(region, 20.0, 80.0, [&](Seconds duration) {
        std::vector<StreamSpec> streams;
        for (std::int64_t i = 0; i < n; ++i) {
          StreamSpec s;
          s.id = i;
          s.bit_rate = b;
          s.disk_offset = stride * static_cast<double>(i);
          s.extent = std::max(stride, 4 * b * config.t_disk);
          streams.push_back(s);
        }
        sim::TraceLog trace(kTraceCapacity);
        MemsPipelineConfig traced = config;
        traced.sinks.trace = &trace;
        auto srv =
            MemsPipelineServer::Create(&disk, G3Bank(2), streams, traced);
        ASSERT_TRUE(srv.ok()) << srv.status().ToString();
        RunServer(srv.value(), duration);
        ASSERT_GT(trace.dropped_records(), 0);
      });
    }
  }
}

TEST(CycleAllocTest, TracedCacheServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  const std::int64_t n_disk = 4;
  const std::int64_t n_cache = 8;
  const std::int64_t k = 4;
  const BytesPerSecond b = 1 * kMBps;
  for (const auto policy :
       {model::CachePolicy::kReplicated, model::CachePolicy::kStriped}) {
    CacheServerConfig config;
    config.policy = policy;
    auto cycle =
        model::IoCycleLength(n_disk, b, model::DiskProfile(disk, n_disk));
    ASSERT_TRUE(cycle.ok());
    config.disk_cycle = cycle.value();
    auto s = model::CachePerStreamBuffer(n_cache, b, k, G3Profile(), policy);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    config.mems_cycle = s.value() / b;
    const Bytes disk_stride =
        disk.Capacity() * 0.9 / static_cast<double>(n_disk);
    const Bytes cache_stride = 10 * kGB * 0.9 / static_cast<double>(n_cache);
    for (const char* region : {"server.cache.disk_cycle", "sim.event.dispatch"}) {
      ExpectSteadyStateAllocFree(region, 15.0, 60.0, [&](Seconds duration) {
        std::vector<CacheStreamSpec> streams;
        for (std::int64_t i = 0; i < n_disk; ++i) {
          streams.push_back(
              {i, b, false, disk_stride * static_cast<double>(i),
               std::max(disk_stride, 2 * b * config.disk_cycle)});
        }
        for (std::int64_t i = 0; i < n_cache; ++i) {
          streams.push_back(
              {n_disk + i, b, true, cache_stride * static_cast<double>(i),
               std::max(cache_stride, 2 * b * config.mems_cycle)});
        }
        sim::TraceLog trace(kTraceCapacity);
        CacheServerConfig traced = config;
        traced.sinks.trace = &trace;
        auto srv =
            CacheStreamingServer::Create(&disk, G3Bank(k), streams, traced);
        ASSERT_TRUE(srv.ok()) << srv.status().ToString();
        RunServer(srv.value(), duration);
        ASSERT_GT(trace.dropped_records(), 0);
      });
    }
  }
}

TEST(CycleAllocTest, TracedFaultedCacheServerSteadyStateAllocFree) {
  // A replicated bank loses a device at 4 s and gets it back at 8 s: the
  // re-plans (and their allocations) happen inside both horizons, and
  // the cycles after the repair must allocate nothing more.
  std::vector<fault::FaultEvent> events;
  events.push_back({4.0, fault::FaultKind::kMemsDeviceFail, 1, 0});
  events.push_back({8.0, fault::FaultKind::kMemsDeviceRepair, 1, 4.0});
  const fault::FaultPlan plan = fault::FaultPlan::FromScript(events);
  for (const char* region :
       {"server.cache.replicated_mems_cycle", "sim.event.dispatch"}) {
    ExpectSteadyStateAllocFree(region, 15.0, 60.0, [&](Seconds duration) {
      MediaServerConfig c;
      c.mode = ServerMode::kMemsCache;
      c.cache_policy = model::CachePolicy::kReplicated;
      c.k = 2;
      c.num_streams = 30;
      c.cached_fraction_of_streams = 0.5;
      c.bit_rate = 8 * kMBps;
      c.sim_duration = duration;
      c.fault_plan = plan;
      sim::TraceLog trace(kTraceCapacity);
      c.trace = &trace;
      std::ostringstream warnings;
      c.fault_warn_stream = &warnings;
      // The facade builds its server inside: its whole call is counted.
      const std::int64_t before = CurrentAllocs();
      auto result = RunMediaServer(c);
      g_runs.allocs += CurrentAllocs() - before;
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      g_runs.count += result.value().ios_completed;
      ASSERT_NE(result.value().faults, nullptr);
      ASSERT_EQ(result.value().faults->block().replans, 2);
      ASSERT_GT(trace.dropped_records(), 0);
    });
  }
}

/// The EDF server's streams: light enough that its buffers fill up, so
/// both the completion lane and the idle wake-up run in steady state.
std::vector<StreamSpec> EdfStreams() {
  std::vector<StreamSpec> streams;
  for (int i = 0; i < 8; ++i) {
    StreamSpec s;
    s.id = i;
    s.bit_rate = 1 * kMBps;
    s.disk_offset = static_cast<double>(i) * 10 * kGB;
    s.extent = 5 * kGB;
    streams.push_back(s);
  }
  return streams;
}

TEST(CycleAllocTest, EdfServerSteadyStateAllocFree) {
  // EDF has no cycles: each IO's service decision, and its completion
  // and playback start on the lanes, must allocate nothing once warm.
  auto disk = UniformFutureDisk();
  for (const char* region : {"server.edf.service", "sim.event.dispatch"}) {
    ExpectSteadyStateAllocFree(region, 10.0, 60.0, [&](Seconds duration) {
      EdfServerConfig config;
      config.io_playback = 0.5;
      auto srv = EdfStreamingServer::Create(&disk, EdfStreams(), config);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      RunServer(srv.value(), duration);
      ASSERT_GT(srv.value().report().idle_time, 0);
    });
  }
}

TEST(CycleAllocTest, TracedEdfServerSteadyStateAllocFree) {
  auto disk = UniformFutureDisk();
  for (const char* region : {"server.edf.service", "sim.event.dispatch"}) {
    ExpectSteadyStateAllocFree(region, 10.0, 60.0, [&](Seconds duration) {
      EdfServerConfig config;
      config.io_playback = 0.5;
      sim::TraceLog trace(kTraceCapacity);
      config.sinks.trace = &trace;
      auto srv = EdfStreamingServer::Create(&disk, EdfStreams(), config);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      RunServer(srv.value(), duration);
      ASSERT_GT(trace.dropped_records(), 0);
    });
  }
}

// A farm sweep thread's shard workspace once warm: the node, specs,
// auditor and server are reset in place, so a whole shard-epoch (build,
// run and collect) allocates nothing, for the same shard again or for a
// smaller one. Counted with the operator new hook alone, so the check is
// the same in every profile build.
TEST(CycleAllocTest, WarmShardWorkspaceEpochAllocatesNothing) {
  farm::ShardedFarmConfig config;
  config.bit_rate = 100 * kKBps;
  config.node_disk = device::FutureDisk2007();
  config.node_disk.inner_rate = config.node_disk.outer_rate;
  const farm::ShardEpochTask task{.streams = 400, .length = 20.0};

  farm::ShardWorkspace workspace(config);
  const farm::ShardEpoch first = workspace.Run(task);
  ASSERT_TRUE(first.ran) << first.error;

  std::int64_t before = CurrentAllocs();
  const farm::ShardEpoch again = workspace.Run(task);
  EXPECT_EQ(CurrentAllocs() - before, 0)
      << "heap allocations in a warm workspace's shard-epoch";
  ASSERT_TRUE(again.ran) << again.error;
  EXPECT_GT(again.cycles, 1);
  EXPECT_EQ(again.ios, first.ios);

  farm::ShardEpochTask smaller = task;
  smaller.streams = 250;
  before = CurrentAllocs();
  const farm::ShardEpoch shrunk = workspace.Run(smaller);
  EXPECT_EQ(CurrentAllocs() - before, 0)
      << "heap allocations in a smaller shard's epoch";
  ASSERT_TRUE(shrunk.ran) << shrunk.error;
  EXPECT_EQ(shrunk.streams, 250);
}

}  // namespace
}  // namespace memstream::server
