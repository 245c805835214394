// google-benchmark microbenchmarks for the library's hot paths: the
// analytical solvers (called inside planner search loops), the IO-queue
// schedulers, the device service models, and the discrete-event engine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "common/move_only_function.h"
#include "common/profiler.h"
#include "common/random.h"
#include "device/device_catalog.h"
#include "device/disk_scheduler.h"
#include "farm/placement.h"
#include "farm/router.h"
#include "model/mems_buffer.h"
#include "model/planner.h"
#include "model/timecycle.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "server/admission.h"
#include "server/timecycle_server.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "workload/popularity.h"

namespace memstream {
namespace {

/// Heap allocations since process start (global operator new below).
std::atomic<std::int64_t> g_allocations{0};

/// Attaches an "allocs_per_op" counter to `state`: heap allocations per
/// loop iteration, measured from `allocs_before`; it shows in the console
/// table and in --benchmark_out JSON.
void ReportAllocsPerOp(benchmark::State& state, std::int64_t allocs_before) {
  const auto delta = static_cast<double>(
      g_allocations.load(std::memory_order_relaxed) - allocs_before);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] =
      benchmark::Counter(iters > 0 ? delta / iters : 0);
}

void BM_Theorem1Sizing(benchmark::State& state) {
  model::DeviceProfile disk;
  disk.rate = 300 * kMBps;
  disk.latency = 4.3 * kMillisecond;
  for (auto _ : state) {
    auto s = model::PerStreamBufferSize(state.range(0), 1 * kMBps, disk);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Theorem1Sizing)->Arg(10)->Arg(100);

void BM_Theorem2Solve(benchmark::State& state) {
  model::MemsBufferParams params;
  params.k = 2;
  params.disk.rate = 300 * kMBps;
  params.disk.latency = 2 * kMillisecond;
  params.mems.rate = 320 * kMBps;
  params.mems.latency = 0.86 * kMillisecond;
  params.mems.capacity = 10 * kGB;
  for (auto _ : state) {
    auto s = model::SolveMemsBuffer(state.range(0), 1 * kMBps, params);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Theorem2Solve)->Arg(10)->Arg(100);

void BM_CachePlannerMaxThroughput(benchmark::State& state) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  model::CacheSystemConfig config;
  config.total_budget = 100;
  config.k = 2;
  config.popularity = {0.05, 0.95};
  config.bit_rate = 100 * kKBps;
  config.disk_latency = model::DiskLatencyFn(disk);
  config.mems.rate = 320 * kMBps;
  config.mems.latency = 0.86 * kMillisecond;
  config.mems.capacity = 10 * kGB;
  for (auto _ : state) {
    auto t = model::MaxCacheSystemThroughput(config);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_CachePlannerMaxThroughput);

// C-LOOK ordering of a batch of range(0) IOs at random offsets, or, in
// the `ascending` case, of a batch already in offset order: the shape
// of a farm shard's non-wrapping cycle, whose streams sit at ascending
// offsets and share one cursor step.
void BM_ElevatorScheduleOrder(benchmark::State& state, bool ascending) {
  Rng rng(42);
  std::vector<device::IoSpan> batch;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    batch.push_back(
        {rng.NextInt(0, static_cast<std::int64_t>(900 * kGB)), 1 * kMB});
  }
  if (ascending) {
    std::sort(batch.begin(), batch.end(),
              [](const device::IoSpan& a, const device::IoSpan& b) {
                return a.offset < b.offset;
              });
  }
  for (auto _ : state) {
    auto order = device::ScheduleOrder(0, batch);
    benchmark::DoNotOptimize(order);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_ElevatorScheduleOrder(benchmark::State& state) {
  BM_ElevatorScheduleOrder(state, /*ascending=*/false);
}
BENCHMARK(BM_ElevatorScheduleOrder)->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_ElevatorScheduleOrder, ascending, true)->Arg(8192);

void BM_DiskService(benchmark::State& state) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  Rng rng(7);
  for (auto _ : state) {
    auto t = disk.Service(
        {rng.NextInt(0, static_cast<std::int64_t>(900 * kGB)), 1 * kMB},
        &rng);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_DiskService);

void BM_MemsService(benchmark::State& state) {
  auto mems = device::MemsDevice::Create(device::MemsG3()).value();
  Rng rng(7);
  for (auto _ : state) {
    auto t = mems.Service(
        {rng.NextInt(0, static_cast<std::int64_t>(9 * kGB)), 64 * kKB},
        nullptr);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_MemsService);

// Steady-state push/pop on the flat 4-ary-heap event queue: after the
// warmup fill, every iteration pops the earliest event and pushes a
// replacement. With the small-buffer callbacks this path performs zero
// heap allocations (asserted by event_queue_test).
void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng(11);
  std::int64_t fired = 0;
  const std::int64_t depth = state.range(0);
  for (std::int64_t i = 0; i < depth; ++i) {
    queue.Push(rng.NextDouble(), [&fired] { ++fired; });
  }
  double horizon = 1.0;
  const std::int64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Seconds when = 0;
    auto cb = queue.Pop(&when);
    cb();
    horizon += 1e-9;
    queue.Push(when + rng.NextDouble() * horizon, [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
  ReportAllocsPerOp(state, allocs_before);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(4096);

// Dispatch cost of the inline move-only callable vs std::function, same
// 32-byte capture. The gap is the shared_ptr/heap indirection the event
// core no longer pays.
void BM_MoveOnlyFunctionDispatch(benchmark::State& state) {
  std::int64_t a = 1, b = 2, c = 3, d = 4;
  MoveOnlyFunction<std::int64_t()> fn([a, b, c, d] { return a + b + c + d; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MoveOnlyFunctionDispatch);

void BM_StdFunctionDispatch(benchmark::State& state) {
  std::int64_t a = 1, b = 2, c = 3, d = 4;
  std::function<std::int64_t()> fn([a, b, c, d] { return a + b + c + d; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdFunctionDispatch);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      (void)sim.Schedule(static_cast<double>((i * 7919) % 1000),
                         [&fired] { ++fired; });
    }
    auto n = sim.Run();
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

// Cost of one telemetry update through the null-tolerant helpers:
// Arg(0) = disabled (null handles, the pay-for-what-you-use idle cost),
// Arg(1) = enabled (live registry handles).
void BM_MetricHooks(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const bool enabled = state.range(0) != 0;
  obs::Counter* counter = enabled ? registry.counter("bench.ios") : nullptr;
  obs::HistogramMetric* hist =
      enabled ? registry.histogram("bench.slack_ms", {0.0, 10.0, 20})
              : nullptr;
  obs::TimeWeightedGauge* tw =
      enabled ? registry.time_weighted("bench.bytes") : nullptr;
  double now = 0;
  for (auto _ : state) {
    now += 1.0;
    obs::Increment(counter);
    obs::Observe(hist, 5.0);
    obs::Update(tw, now, 42.0);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_MetricHooks)->Arg(0)->Arg(1);

// End-to-end instrumentation overhead: the same DirectStreamingServer run
// with a null registry (Arg 0) vs full telemetry (Arg 1). The two arms
// should be within noise of each other.
void BM_DirectServerTelemetry(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  for (auto _ : state) {
    auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
    obs::MetricsRegistry registry;
    server::DirectServerConfig config;
    config.cycle = 0.5;
    config.sinks.metrics = enabled ? &registry : nullptr;
    std::vector<server::StreamSpec> streams;
    for (int i = 0; i < 8; ++i) {
      server::StreamSpec s;
      s.id = i;
      s.bit_rate = 1 * kMBps;
      s.disk_offset = static_cast<double>(i) * 10 * kGB;
      s.extent = 5 * kGB;
      streams.push_back(s);
    }
    auto srv = server::DirectStreamingServer::Create(&disk, streams, config);
    (void)srv.value().Run(20.0);
    benchmark::DoNotOptimize(srv.value().report().ios_completed);
  }
}
BENCHMARK(BM_DirectServerTelemetry)->Arg(0)->Arg(1);

// Whole scheduling rounds per second through the batched SoA cycle
// engine (items = cycles, the tentpole target): each iteration runs a
// fresh direct server for 20 simulated seconds at a 0.5 s cycle on the
// allocation-free fast path. Arg = stream count, so the two arms bound
// the per-cycle and per-stream shares of the cost.
void BM_DirectServerCycles(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
    server::DirectServerConfig config;
    config.cycle = 0.5;
    std::vector<server::StreamSpec> streams;
    for (std::int64_t i = 0; i < n; ++i) {
      server::StreamSpec s;
      s.id = i;
      s.bit_rate = 1 * kMBps;
      s.disk_offset = static_cast<double>(i) * 10 * kGB;
      s.extent = 5 * kGB;
      streams.push_back(s);
    }
    auto srv = server::DirectStreamingServer::Create(&disk, streams, config);
    (void)srv.value().Run(20.0);
    cycles += srv.value().report().disk.cycles;
  }
  state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_DirectServerCycles)->Arg(8)->Arg(64);

// Admission decisions per second (items = admitted streams) under the
// churny admit/release pattern that keeps returning to recently seen
// (n, B̄) loads. Arg = buffer_k: 0 solves Theorem 1 directly on every
// offer (no memo), 2 prices against the Theorem 2 MEMS-buffer solve,
// which the controller's re-solve memo turns into a hash probe here.
void BM_AdmissionChurn(benchmark::State& state) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  server::AdmissionConfig config;
  config.dram_budget = 4 * kGB;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = model::DiskLatencyFn(disk);
  config.buffer_k = state.range(0);
  config.mems.rate = 320 * kMBps;
  config.mems.latency = 0.86 * kMillisecond;
  config.mems.capacity = 10 * kGB;
  auto ctrl = server::AdmissionController::Create(config);
  for (int i = 0; i < 64; ++i) {
    (void)ctrl.value().TryAdmit(1 * kMBps);
  }
  std::int64_t admitted = 0;
  for (auto _ : state) {
    admitted += ctrl.value().TryAdmit(1 * kMBps).admitted ? 1 : 0;
    (void)ctrl.value().Release(1 * kMBps);
  }
  benchmark::DoNotOptimize(ctrl.value().memo_stats().hits);
  state.SetItemsProcessed(admitted);
}
BENCHMARK(BM_AdmissionChurn)->Arg(0)->Arg(2);

// The same Theorem-1 admit/release pair on a controller already holding
// Arg streams of one rate. Release scans rate classes, not streams, so
// the cost stays flat as the held count grows.
void BM_AdmissionChurnHeld(benchmark::State& state) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  server::AdmissionConfig config;
  config.dram_budget = 100 * kGB;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = model::DiskLatencyFn(disk);
  auto ctrl = server::AdmissionController::Create(config);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)ctrl.value().TryAdmit(16 * kKBps);
  }
  std::int64_t admitted = 0;
  for (auto _ : state) {
    admitted += ctrl.value().TryAdmit(16 * kKBps).admitted ? 1 : 0;
    (void)ctrl.value().Release(16 * kKBps);
  }
  state.SetItemsProcessed(admitted);
}
BENCHMARK(BM_AdmissionChurnHeld)->Arg(64)->Arg(8192);

// Cost of one auditor/timeline sample through the null-tolerant helpers:
// Arg(0) = disabled (null sink: one pointer test per site), Arg(1) = a
// live sealed auditor plus a live timeline series on the clean path.
void BM_QosAuditTimelineHooks(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::QosAuditorConfig qc;
  qc.disk_cycle = 1.0;
  obs::QosAuditor live(qc);
  live.AddStream(0, 1 * kMBps, 4 * kMB, obs::QosDomain::kDisk);
  live.Seal();
  obs::QosAuditor* auditor = enabled ? &live : nullptr;
  obs::TimelineRecorder recorder;
  obs::TimelineSeries* series =
      enabled ? recorder.AddSeries("bench.dram_bytes", "bytes") : nullptr;
  double now = 0;
  for (auto _ : state) {
    now += 1.0;
    obs::RecordIo(auditor, 0, 1 * kMB);
    obs::RecordDramLevel(auditor, 0, now, 2 * kMB);
    obs::Record(series, now, 2 * kMB);
    obs::EndDiskCycle(auditor, now, 0.5);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_QosAuditTimelineHooks)->Arg(0)->Arg(1);

// End-to-end auditor overhead: the same DirectStreamingServer run with no
// auditor (Arg 0) vs a sealed clean-path auditor (Arg 1). The two arms
// should be within noise of each other.
void BM_DirectServerAudit(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  for (auto _ : state) {
    auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
    server::DirectServerConfig config;
    config.cycle = 0.5;
    obs::QosAuditorConfig qc;
    qc.disk_cycle = config.cycle;
    obs::QosAuditor auditor(qc);
    std::vector<server::StreamSpec> streams;
    for (int i = 0; i < 8; ++i) {
      server::StreamSpec s;
      s.id = i;
      s.bit_rate = 1 * kMBps;
      s.disk_offset = static_cast<double>(i) * 10 * kGB;
      s.extent = 5 * kGB;
      streams.push_back(s);
      auditor.AddStream(s.id, s.bit_rate, 2 * s.bit_rate * config.cycle,
                        obs::QosDomain::kDisk);
    }
    auditor.Seal();
    config.sinks.auditor = enabled ? &auditor : nullptr;
    auto srv = server::DirectStreamingServer::Create(&disk, streams, config);
    (void)srv.value().Run(20.0);
    benchmark::DoNotOptimize(srv.value().report().ios_completed);
  }
}
BENCHMARK(BM_DirectServerAudit)->Arg(0)->Arg(1);

// Cost of one PROF_SCOPE region: Arg(0) = profiler disabled (the null
// sink — one inline atomic load and a branch), Arg(1) = enabled (clock
// reads + node lookup + relaxed counter updates). The disabled arm is
// what every instrumented hot path pays when nobody asked for a profile.
void BM_ProfilerScope(benchmark::State& state) {
  auto& profiler = prof::Profiler::Global();
  const bool enabled = state.range(0) != 0;
  profiler.Reset();
  if (enabled) {
    profiler.Enable();
  } else {
    profiler.Disable();
  }
  const std::int64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    PROF_SCOPE("bench.profiler_scope");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  ReportAllocsPerOp(state, allocs_before);
  profiler.Disable();
  profiler.Reset();
}
BENCHMARK(BM_ProfilerScope)->Arg(0)->Arg(1);

// Cost of one stream-journal IO sample plus an SLO record through the
// null-tolerant helpers: Arg(0) = disabled (null journal/slo — a
// pointer test per site, the price every server pays when nobody wired
// the observers), Arg(1) = a live journal slot and a live SLO. The
// null arm should price like the disabled BM_ProfilerScope arm, and
// the live arm's allocs_per_op must be zero — registration allocates,
// the steady state never does.
void BM_StreamJournalHooks(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::StreamJournal journal;
  obs::SloMonitor monitor;
  const std::size_t live_slot = journal.EnsureStream(0, 1 * kMBps, 1 * kMB, 0.0);
  obs::StreamJournal* j = enabled ? &journal : nullptr;
  const std::ptrdiff_t slot =
      enabled ? static_cast<std::ptrdiff_t>(live_slot) : -1;
  obs::Slo* slo =
      enabled ? monitor.Add(obs::StandardCycleSlackSlo()) : nullptr;
  double now = 0;
  const std::int64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    now += 0.5;
    obs::JournalIo(j, slot, now, 1 * kMB, 2 * kMB);
    obs::JournalUnderflows(j, slot, now, 0);
    obs::SloRecord(slo, now, 1, 0);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() * 3);
  ReportAllocsPerOp(state, allocs_before);
}
BENCHMARK(BM_StreamJournalHooks)->Arg(0)->Arg(1);

// One catalog lookup through the farm placement at millionfarm scale
// (128 shards, 20k titles): Arg(0) = consistent-hash ring walk,
// Arg(1) = popularity-aware head/tail split. Route sits on this for
// every admission attempt, so it must stay allocation-free —
// allocs_per_op is asserted to be exactly 0 (placement_test holds the
// same line as a unit test).
void BM_PlacementLookup(benchmark::State& state) {
  farm::PlacementConfig config;
  config.num_shards = 128;
  config.num_titles = 20000;
  config.replicas = 4;
  config.virtual_nodes = 64;
  config.zipf_exponent = 0.8;
  config.replication_budget = 0.10;
  const auto policy = state.range(0) != 0
                          ? farm::PlacementPolicy::kPopularityAware
                          : farm::PlacementPolicy::kConsistentHash;
  auto placement = farm::MakePlacement(policy, config);
  std::int64_t title = 0;
  const std::int64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement.value()->Lookup(title));
    title = (title + 7919) % config.num_titles;
  }
  state.SetItemsProcessed(state.iterations());
  ReportAllocsPerOp(state, allocs_before);
  // The framework itself allocates O(1) times inside the timed window
  // (including the short estimation runs); a per-op allocation in
  // Lookup would scale with the iteration count instead.
  const std::int64_t delta =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  if (delta > static_cast<std::int64_t>(state.iterations()) / 100 + 64) {
    state.SkipWithError("Lookup allocates per op");
  }
}
BENCHMARK(BM_PlacementLookup)->Arg(0)->Arg(1);

// The farm_zipf admission wave routed serially: 1.08 M seeded Zipf
// offers of 100 KB/s over a popularity-aware placement of 128 shards
// (20k titles, 4 head copies), each shard one 5-way striped
// FutureDisk node with a 48 GB budget. Each iteration builds a fresh
// router and the title groups, and routes every offer from the groups'
// candidate lists, as RunShardedFarm's wave does; items = offers.
// Arg(0) solves Theorem 1 for every candidate; Arg(1) shares one
// SizingTable across the shards, as the farm does (its build is timed
// too).
void BM_FarmWaveRoute(benchmark::State& state) {
  farm::PlacementConfig pc;
  pc.num_shards = 128;
  pc.num_titles = 20000;
  pc.replicas = 4;
  pc.zipf_exponent = 0.8;
  pc.replication_budget = 0.10;
  auto placement =
      farm::MakePlacement(farm::PlacementPolicy::kPopularityAware, pc);
  device::DiskParameters node = device::FutureDisk2007();
  node.outer_rate *= 5;
  node.inner_rate = node.outer_rate;
  node.capacity *= 5;
  auto disk = device::DiskDrive::Create(node).value();
  farm::RouterConfig rc;
  rc.dram_budget_per_shard = 48 * kGB;
  rc.node_rate = disk.parameters().outer_rate;
  rc.node_latency = model::DiskLatencyFn(disk);
  constexpr std::int64_t kOffers = 1080000;
  constexpr BytesPerSecond kRate = 100 * kKBps;
  const auto sampler = workload::ZipfSampler::Create(pc.num_titles, 0.8);
  std::vector<std::int32_t> titles(kOffers);
  Rng rng(1);
  for (std::int32_t& t : titles) {
    t = static_cast<std::int32_t>(sampler.value().Sample(rng));
  }
  std::int64_t admitted = 0;
  for (auto _ : state) {
    auto router = farm::AdmissionRouter::Create(placement.value().get(), rc);
    if (state.range(0) != 0 &&
        !router.value().ShareSizingTable(kRate, kOffers).ok()) {
      state.SkipWithError("ShareSizingTable failed");
      break;
    }
    const farm::TitleGroups groups = farm::GroupTitles(*placement.value());
    farm::RouteTally tally;
    for (const std::int32_t t : titles) {
      admitted += router.value().RouteAmong(groups.candidates(t), kRate,
                                            &tally) >= 0
                      ? 1
                      : 0;
    }
  }
  benchmark::DoNotOptimize(admitted);
  state.SetItemsProcessed(state.iterations() * kOffers);
}
BENCHMARK(BM_FarmWaveRoute)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution dist(10000, 1.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace
}  // namespace memstream

// Counting global operator new: the per-op allocation counters above are
// the same technique the event-core tests use to assert the zero-alloc
// steady state, promoted to a continuously-tracked bench counter.

// GCC pairs `new` expressions with the free() inside these replaced
// operators and warns about the malloc/free crossing; it is intentional
// here — the replacement is malloc-backed on both sides.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  memstream::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  memstream::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// MEMSTREAM_SMOKE trims this binary the same way it trims the sweep
// benches: unless the caller already picked a filter/repetition count,
// run only the event-core + profiler benchmarks once each. ctest's
// bench-smoke label leans on this, so the trimming lives here instead of
// at every call site.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string smoke_filter =
      "--benchmark_filter=EventQueue|MoveOnlyFunction|ProfilerScope";
  std::string smoke_reps = "--benchmark_repetitions=1";
  if (std::getenv("MEMSTREAM_SMOKE") != nullptr) {
    bool has_filter = false;
    bool has_reps = false;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) {
        has_filter = true;
      }
      if (std::strncmp(argv[i], "--benchmark_repetitions", 23) == 0) {
        has_reps = true;
      }
    }
    if (!has_filter) args.push_back(smoke_filter.data());
    if (!has_reps) args.push_back(smoke_reps.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
