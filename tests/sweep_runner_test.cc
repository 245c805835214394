// SweepRunner: ordered collection, per-task seeding, metric merging, and
// the determinism suite — the same sweep at 1..8 threads must produce
// byte-identical CSV output and identical merged metric values. This is
// the ctest enforcement of the engine's core contract.

#include "exp/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv_writer.h"
#include "sim/simulator.h"

namespace memstream::exp {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(SweepRunnerTest, MapCollectsResultsInIndexOrder) {
  SweepRunner runner({.threads = 4});
  auto rows = runner.Map(100, [](TaskContext& ctx) {
    return ctx.index() * 10;
  });
  ASSERT_EQ(rows.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(rows[i], i * 10);
}

TEST(SweepRunnerTest, TaskSeedIsAFunctionOfIndexOnly) {
  const std::uint64_t base = 42;
  EXPECT_EQ(TaskSeed(base, 0), TaskSeed(base, 0));
  EXPECT_NE(TaskSeed(base, 0), TaskSeed(base, 1));
  EXPECT_NE(TaskSeed(base, 0), TaskSeed(base + 1, 0));

  // The seed a task observes must not depend on the thread count.
  SweepRunner serial({.threads = 1, .base_seed = base});
  SweepRunner parallel({.threads = 8, .base_seed = base});
  auto seeds_serial =
      serial.Map(64, [](TaskContext& ctx) { return ctx.seed(); });
  auto seeds_parallel =
      parallel.Map(64, [](TaskContext& ctx) { return ctx.seed(); });
  EXPECT_EQ(seeds_serial, seeds_parallel);
}

TEST(SweepRunnerTest, PerTaskRngStreamsAreThreadCountInvariant) {
  auto draw = [](int threads) {
    SweepRunner runner({.threads = threads, .base_seed = 7});
    return runner.Map(32, [](TaskContext& ctx) {
      double sum = 0;
      for (int i = 0; i < 10; ++i) sum += ctx.rng().NextDouble();
      return sum;
    });
  };
  const auto reference = draw(1);
  for (int threads : {2, 3, 8}) {
    EXPECT_EQ(draw(threads), reference) << "threads=" << threads;
  }
}

TEST(SweepRunnerTest, MergedMetricsMatchSerialRun) {
  auto sweep = [](int threads, obs::MetricsRegistry* registry) {
    SweepRunner runner({.threads = threads, .metrics = registry});
    runner.ForEach(50, [](TaskContext& ctx) {
      obs::MetricsRegistry* m = ctx.metrics();
      ASSERT_NE(m, nullptr);
      m->counter("sweep.tasks")->Increment();
      m->counter("sweep.points")->Increment(
          static_cast<double>(ctx.index()));
      m->gauge("sweep.last_index")->Set(static_cast<double>(ctx.index()));
      m->histogram("sweep.latency_ms", {0.0, 50.0, 10})
          ->Observe(static_cast<double>(ctx.index()));
      auto* tw = m->time_weighted("sweep.occupancy");
      tw->Update(0.0, 1.0);
      tw->Update(1.0, 0.0);
    });
  };

  obs::MetricsRegistry serial;
  sweep(1, &serial);
  for (int threads : {2, 8}) {
    obs::MetricsRegistry parallel;
    sweep(threads, &parallel);
    // Identical values, not merely close: merge order is task order.
    EXPECT_EQ(parallel.ToCsvText(), serial.ToCsvText())
        << "threads=" << threads;
  }
  EXPECT_DOUBLE_EQ(serial.FindCounter("sweep.tasks")->value(), 50.0);
  EXPECT_DOUBLE_EQ(serial.FindCounter("sweep.points")->value(),
                   49.0 * 50.0 / 2.0);
  // Gauges merge last-writer-wins in task order: final task index.
  EXPECT_DOUBLE_EQ(serial.FindGauge("sweep.last_index")->value(), 49.0);
  EXPECT_EQ(serial.FindHistogram("sweep.latency_ms")->stats().count(), 50);
}

// The acceptance-criteria determinism check: a bench-shaped sweep
// (simulators inside tasks, CSV emission from ordered rows) writes
// byte-identical files at every thread count.
TEST(SweepRunnerTest, CsvBytesAreIdenticalAcrossThreadCounts) {
  struct Row {
    std::vector<std::string> cells;
  };
  auto write_csv = [](int threads, const std::string& path) {
    SweepRunner runner({.threads = threads, .base_seed = 99});
    auto rows = runner.Map(40, [](TaskContext& ctx) {
      // A miniature simulation per task, as the converted benches do.
      sim::Simulator sim;
      std::int64_t fired = 0;
      const std::int64_t n = 5 + ctx.index() % 7;
      for (std::int64_t i = 0; i < n; ++i) {
        (void)sim.Schedule(ctx.rng().NextDouble(), [&fired] { ++fired; });
      }
      (void)sim.Run();
      ctx.AddEvents(fired);
      Row row;
      row.cells = {std::to_string(ctx.index()), std::to_string(fired),
                   std::to_string(ctx.rng().NextDouble())};
      return row;
    });
    CsvWriter csv(path, {"index", "events", "draw"});
    for (const auto& row : rows) csv.AddRow(row.cells);
    csv.Close();
  };

  const auto dir = std::filesystem::temp_directory_path();
  const std::string reference_path =
      (dir / "memstream_sweep_serial.csv").string();
  write_csv(1, reference_path);
  const std::string reference = ReadFile(reference_path);
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 4, 8}) {
    const std::string path =
        (dir / ("memstream_sweep_t" + std::to_string(threads) + ".csv"))
            .string();
    write_csv(threads, path);
    EXPECT_EQ(ReadFile(path), reference) << "threads=" << threads;
    std::filesystem::remove(path);
  }
  std::filesystem::remove(reference_path);
}

TEST(SweepRunnerTest, StatsAccumulateAcrossSweeps) {
  SweepRunner runner({.threads = 2});
  runner.ForEach(10, [](TaskContext& ctx) { ctx.AddEvents(3); });
  runner.ForEach(5, [](TaskContext& ctx) { ctx.AddEvents(1); });
  EXPECT_EQ(runner.stats().tasks, 15);
  EXPECT_EQ(runner.stats().events, 35);
  EXPECT_EQ(runner.stats().threads, 2);
  EXPECT_GE(runner.stats().wall_seconds, 0.0);

  SweepStats stats;
  stats.wall_seconds = 0.5;
  stats.events = 1000;
  EXPECT_EQ(stats.events_per_sec(), 2000.0);
}

TEST(SweepRunnerTest, ResolveThreadCountHonorsEnvOverride) {
  ::setenv("MEMSTREAM_THREADS", "3", 1);
  EXPECT_EQ(ResolveThreadCount(0), 3);
  EXPECT_EQ(ResolveThreadCount(5), 5);  // explicit request wins
  ::setenv("MEMSTREAM_THREADS", "garbage", 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  ::unsetenv("MEMSTREAM_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1);
}

}  // namespace
}  // namespace memstream::exp
