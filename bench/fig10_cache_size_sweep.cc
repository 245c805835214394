// Regenerates Fig. 10: improvement in server throughput (%) vs the size
// of the MEMS cache bank (k = 1..8), striped management, $100 total
// budget, 100 KB/s streams, each device caching 1% of the content, for
// the five popularity distributions.
//
// The (k, popularity) grid runs on the parallel sweep engine; the table
// is assembled serially afterwards.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/planner.h"

int main() {
  using namespace memstream;

  auto disk = bench::AnalyticFutureDisk();
  const auto latency = model::DiskLatencyFn(disk);

  const model::Popularity distributions[] = {
      {0.01, 0.99}, {0.05, 0.95}, {0.10, 0.90}, {0.20, 0.80}, {0.50, 0.50}};

  std::cout << "Fig. 10: throughput improvement vs MEMS cache size\n"
            << "  (striped, $100 budget, 100 KB/s streams, 1% of content "
               "per device)\n\n";
  TablePrinter table({"k", "1:99", "5:95", "10:90", "20:80", "50:50"});
  CsvWriter csv(bench::CsvPath("fig10_cache_size_sweep"),
                {"k", "popularity_x", "improvement_percent", "streams",
                 "baseline"});

  model::CacheSystemConfig base;
  base.total_budget = 100;
  base.dram_per_byte = 20.0 / kGB;
  base.mems_device_cost = 10;
  base.policy = model::CachePolicy::kStriped;
  base.mems_capacity = 10 * kGB;
  base.content_size = 1000 * kGB;
  base.bit_rate = 100 * kKBps;
  base.disk_rate = 300 * kMBps;
  base.disk_latency = latency;
  base.mems = bench::MemsProfileAtRatio(5.0);

  const std::int64_t max_k = bench::SmokeMode() ? 2 : 8;
  const std::int64_t pop_count =
      static_cast<std::int64_t>(std::size(distributions));

  struct Cell {
    bool ok = false;
    std::int64_t streams = 0;
    std::int64_t baseline = 0;
    double improvement = 0;
  };
  exp::SweepRunner runner;
  const auto cells = runner.Map(
      max_k * pop_count,
      [&base, &distributions, pop_count](exp::TaskContext& ctx) {
        const std::int64_t k = 1 + ctx.index() / pop_count;
        const auto& pop =
            distributions[static_cast<std::size_t>(ctx.index() % pop_count)];
        ctx.AddEvents(2);  // baseline + cached planner solves
        Cell cell;
        model::CacheSystemConfig config = base;
        config.popularity = pop;
        config.k = 0;
        auto none = model::MaxCacheSystemThroughput(config);
        config.k = k;
        auto with_cache = model::MaxCacheSystemThroughput(config);
        if (!none.ok() || !with_cache.ok() ||
            none.value().total_streams == 0) {
          return cell;
        }
        cell.ok = true;
        cell.streams = with_cache.value().total_streams;
        cell.baseline = none.value().total_streams;
        cell.improvement = 100.0 * (static_cast<double>(cell.streams) /
                                        static_cast<double>(cell.baseline) -
                                    1.0);
        return cell;
      });

  double best_improvement = 0;
  for (std::int64_t k = 1; k <= max_k; ++k) {
    std::vector<std::string> row{TablePrinter::Cell(k)};
    for (std::int64_t p = 0; p < pop_count; ++p) {
      const auto& pop = distributions[static_cast<std::size_t>(p)];
      const Cell& cell =
          cells[static_cast<std::size_t>((k - 1) * pop_count + p)];
      if (!cell.ok) {
        row.push_back("-");
        continue;
      }
      best_improvement = std::max(best_improvement, cell.improvement);
      row.push_back(TablePrinter::Cell(cell.improvement, 1) + "%");
      csv.AddRow(std::vector<std::string>{
          std::to_string(k), std::to_string(pop.x),
          std::to_string(cell.improvement), std::to_string(cell.streams),
          std::to_string(cell.baseline)});
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::cout << "\nBest improvement over the sweep: " << best_improvement
            << "% (paper: up to ~140%, i.e. 2.4x)\n"
            << "Shape check (paper §5.2.4): each skewed distribution has "
               "an optimal k; the uniform 50:50 column only degrades as "
               "k grows.\n";
  std::cout << "CSV: " << bench::CsvPath("fig10_cache_size_sweep") << "\n";
  bench::PrintSweep(runner);
  return 0;
}
