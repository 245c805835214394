// Ablation bench for the §7 future-work extension: splitting the MEMS
// bank between buffering and caching. For each popularity distribution,
// compares the best pure-cache, pure-buffer, and hybrid splits at a
// fixed $100 budget, 100 KB/s streams.
//
// Each popularity distribution (the pure-k search plus the hybrid plan)
// is one parallel sweep task.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/hybrid.h"

int main() {
  using namespace memstream;

  auto disk = bench::AnalyticFutureDisk();

  model::HybridConfig config;
  config.base.total_budget = 100;
  config.base.dram_per_byte = 20.0 / kGB;
  config.base.mems_device_cost = 10;
  config.base.policy = model::CachePolicy::kStriped;
  config.base.mems_capacity = 10 * kGB;
  config.base.content_size = 1000 * kGB;
  config.base.bit_rate = 100 * kKBps;
  config.base.disk_rate = 300 * kMBps;
  config.base.disk_latency = model::DiskLatencyFn(disk);
  config.base.mems = bench::MemsProfileAtRatio(5.0);
  config.max_devices = 8;

  std::vector<model::Popularity> distributions = {
      {0.01, 0.99}, {0.05, 0.95}, {0.10, 0.90}, {0.20, 0.80}, {0.50, 0.50}};
  if (bench::SmokeMode() && distributions.size() > 2) {
    distributions.resize(2);
  }

  std::cout << "Hybrid buffer+cache ablation ($100 budget, 100 KB/s)\n\n";
  TablePrinter table({"Popularity", "No MEMS", "Best cache-only",
                      "Best buffer-only", "Hybrid (kb,kc)",
                      "Hybrid streams", "Gain vs best pure"});
  CsvWriter csv(bench::CsvPath("ablation_hybrid"),
                {"popularity_x", "no_mems", "cache_only", "buffer_only",
                 "k_buffer", "k_cache", "hybrid"});

  struct Row {
    bool ok = false;
    std::int64_t none = 0;
    std::int64_t best_cache = 0;
    std::int64_t best_buffer = 0;
    std::int64_t k_buffer = 0;
    std::int64_t k_cache = 0;
    std::int64_t hybrid = 0;
  };
  exp::SweepRunner runner;
  const auto rows = runner.Map(
      static_cast<std::int64_t>(distributions.size()),
      [&distributions, &config](exp::TaskContext& ctx) {
        Row row;
        model::HybridConfig local = config;
        local.base.popularity =
            distributions[static_cast<std::size_t>(ctx.index())];
        auto none = model::EvaluateHybridSplit(local, 0, 0);
        for (std::int64_t k = 1; k <= local.max_devices; ++k) {
          ctx.AddEvents(2);
          auto cache = model::EvaluateHybridSplit(local, 0, k);
          if (cache.ok()) {
            row.best_cache =
                std::max(row.best_cache, cache.value().total_streams);
          }
          auto buffer = model::EvaluateHybridSplit(local, k, 0);
          if (buffer.ok()) {
            row.best_buffer =
                std::max(row.best_buffer, buffer.value().total_streams);
          }
        }
        auto plan = model::PlanHybrid(local);
        if (!none.ok() || !plan.ok()) return row;
        row.ok = true;
        row.none = none.value().total_streams;
        row.k_buffer = plan.value().k_buffer;
        row.k_cache = plan.value().k_cache;
        row.hybrid = plan.value().throughput.total_streams;
        return row;
      });

  for (std::size_t i = 0; i < distributions.size(); ++i) {
    const auto& pop = distributions[i];
    const Row& row = rows[i];
    if (!row.ok) continue;
    const std::int64_t pure_best =
        std::max({row.none, row.best_cache, row.best_buffer});
    table.AddRow(
        {std::to_string(static_cast<int>(pop.x * 100)) + ":" +
             std::to_string(static_cast<int>(pop.y * 100)),
         TablePrinter::Cell(row.none), TablePrinter::Cell(row.best_cache),
         TablePrinter::Cell(row.best_buffer),
         std::string("(")
             .append(TablePrinter::Cell(row.k_buffer))
             .append(",")
             .append(TablePrinter::Cell(row.k_cache))
             .append(")"),
         TablePrinter::Cell(row.hybrid),
         TablePrinter::Cell(
             100.0 * (static_cast<double>(row.hybrid) /
                          static_cast<double>(pure_best) -
                      1.0),
             1) +
             "%"});
    csv.AddRow(std::vector<std::string>{
        std::to_string(pop.x), std::to_string(row.none),
        std::to_string(row.best_cache), std::to_string(row.best_buffer),
        std::to_string(row.k_buffer), std::to_string(row.k_cache),
        std::to_string(row.hybrid)});
  }
  table.Print(std::cout);
  std::cout << "\nCSV: " << bench::CsvPath("ablation_hybrid") << "\n";
  bench::RecordSweep("ablation_hybrid", runner);
  return 0;
}
