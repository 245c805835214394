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
// of the long run contribute exactly zero.
//
// The traced variants attach a bounded TraceLog and check every event
// dispatch ("sim.event.dispatch": cycle bodies, completion-lane
// handlers, trace appends) the same way: completions are lane records rather than
// closures, and a warm trace ring overwrites records in place, so
// tracing adds no steady-state allocation either.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/profiler.h"
#include "device/device_catalog.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "model/mems_buffer.h"
#include "model/mems_cache.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "fault/fault_plan.h"
#include "server/cache_server.h"
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

/// Count and alloc delta of every profile region named `name`, summed
/// over the (possibly nested) occurrences.
struct RegionTotals {
  std::int64_t count = 0;
  std::int64_t allocs = 0;
};

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

/// The steady-state-zero assertion: the long run must execute more
/// cycles than the short one while allocating not one byte more inside
/// the cycle region.
template <typename Body>
void ExpectSteadyStateAllocFree(const std::string& region, Seconds short_run,
                                Seconds long_run, Body&& body) {
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
        ASSERT_TRUE(srv.value().Run(duration).ok());
      });
}

TEST(CycleAllocTest, JournaledDirectServerSteadyStateAllocFree) {
  // The lifecycle journal and SLO monitor hook every deposit and cycle
  // end; registration allocates at Create, but the steady-state cycle
  // must stay exactly as allocation-free as the unwired server.
  auto disk = UniformFutureDisk();
  obs::StreamJournal journal;
  obs::SloMonitor slo;
  ExpectSteadyStateAllocFree(
      "server.direct.cycle", 10.0, 60.0, [&](Seconds duration) {
        DirectServerConfig config;
        config.cycle = 0.5;
        config.journal = &journal;
        config.slo = &slo;
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
        ASSERT_TRUE(srv.value().Run(duration).ok());
      });
  EXPECT_EQ(journal.size(), 8u);
  EXPECT_NE(slo.Find("cycle_slack"), nullptr);
  EXPECT_GT(slo.Find("cycle_slack")->good(), 0);
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
      ASSERT_TRUE(srv.value().Run(duration).ok());
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
      ASSERT_TRUE(srv.value().Run(duration).ok());
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
      auto srv = DirectStreamingServer::Create(&disk, streams, config, &trace);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      ASSERT_TRUE(srv.value().Run(duration).ok());
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
        auto srv = MemsPipelineServer::Create(&disk, G3Bank(2), streams,
                                              config, &trace);
        ASSERT_TRUE(srv.ok()) << srv.status().ToString();
        ASSERT_TRUE(srv.value().Run(duration).ok());
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
        auto srv = CacheStreamingServer::Create(&disk, G3Bank(k), streams,
                                                config, &trace);
        ASSERT_TRUE(srv.ok()) << srv.status().ToString();
        ASSERT_TRUE(srv.value().Run(duration).ok());
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
  events.push_back({4.0, fault::FaultKind::kMemsDeviceFail, 1, 0, 0});
  events.push_back({8.0, fault::FaultKind::kMemsDeviceRepair, 1, 0, 4.0});
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
      auto result = RunMediaServer(c);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_NE(result.value().faults, nullptr);
      ASSERT_EQ(result.value().faults->block().replans, 2);
      ASSERT_GT(trace.dropped_records(), 0);
    });
  }
}

}  // namespace
}  // namespace memstream::server
