// Regenerates Fig. 8: reduction in the *total* buffering cost (DRAM plus
// the MEMS storage actually used, per-byte pricing) vs the number of
// streams, for the four media types. The disk IO cycle T_disk is chosen
// by the planner's closed-form per-byte optimum.
//
// The (media, N) grid is evaluated on the parallel sweep engine; rows
// are emitted serially in grid order.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/planner.h"
#include "model/stream.h"
#include "model/timecycle.h"

int main() {
  using namespace memstream;

  const auto latency = bench::PaperConservativeDiskLatency();
  model::CostInputs prices;
  prices.dram_per_byte = 20.0 / kGB;
  prices.mems_per_byte = 1.0 / kGB;

  std::cout << "Fig. 8: Reduction in total buffering cost [$] vs N\n"
            << "  (per-byte MEMS pricing, k = 2 G3 devices, optimal "
               "T_disk)\n\n";

  TablePrinter table({"Media", "N", "Cost w/o MEMS [$]",
                      "Cost with MEMS [$]", "Reduction [$]"});
  CsvWriter csv(bench::CsvPath("fig8_total_cost_reduction"),
                {"media", "bit_rate_bps", "n", "cost_without",
                 "cost_with", "reduction"});

  struct Point {
    model::StreamClass media;
    std::int64_t n = 0;
  };
  std::vector<Point> points;
  for (const auto& media : model::PaperStreamClasses()) {
    const std::int64_t cap =
        model::MaxStreamsBandwidthBound(300 * kMBps, media.bit_rate);
    // Log-spaced sweep plus near-saturation points (the figure's right
    // edge, where the savings peak).
    std::vector<std::int64_t> stream_counts;
    for (std::int64_t n = 2; n < cap / 2;
         n = std::max<std::int64_t>(n + 1, static_cast<std::int64_t>(
                                               std::llround(n * 2.15)))) {
      stream_counts.push_back(n);
    }
    for (double frac : {0.5, 0.7, 0.85, 0.95}) {
      stream_counts.push_back(
          static_cast<std::int64_t>(frac * static_cast<double>(cap)));
    }
    std::sort(stream_counts.begin(), stream_counts.end());
    stream_counts.erase(
        std::unique(stream_counts.begin(), stream_counts.end()),
        stream_counts.end());
    if (bench::SmokeMode() && stream_counts.size() > 3) {
      stream_counts.resize(3);
    }
    for (std::int64_t n : stream_counts) {
      if (n > cap || n < 2) continue;
      points.push_back({media, n});
    }
  }

  struct Row {
    bool valid = false;
    Dollars cost_without = 0;
    Dollars cost_with = 0;
  };
  exp::SweepRunner runner;
  const auto rows = runner.Map(
      static_cast<std::int64_t>(points.size()),
      [&points, &latency, &prices](exp::TaskContext& ctx) {
        const Point& p = points[static_cast<std::size_t>(ctx.index())];
        Row row;
        ctx.AddEvents(1);
        model::DeviceProfile disk_profile;
        disk_profile.rate = 300 * kMBps;
        disk_profile.latency = latency(p.n);
        auto without =
            model::TotalBufferSize(p.n, p.media.bit_rate, disk_profile);
        if (!without.ok()) return row;
        row.cost_without = without.value() * prices.dram_per_byte;

        model::MemsBufferParams params;
        params.k = 2;
        params.disk = disk_profile;
        params.mems = bench::MemsProfileAtRatio(5.0);
        params.mems_capacity_override = 1e18;  // per-byte pricing: no cap
        auto best = model::OptimalTdiskPerByte(p.n, p.media.bit_rate,
                                               params, prices);
        if (!best.ok()) return row;
        row.valid = true;
        row.cost_with = best.value().total_cost;
        return row;
      });

  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const Row& row = rows[i];
    if (!row.valid) continue;
    const Dollars reduction = row.cost_without - row.cost_with;
    table.AddRow({p.media.name, TablePrinter::Cell(p.n),
                  TablePrinter::Cell(row.cost_without, 3),
                  TablePrinter::Cell(row.cost_with, 3),
                  TablePrinter::Cell(reduction, 3)});
    csv.AddRow(std::vector<std::string>{
        p.media.name, std::to_string(p.media.bit_rate),
        std::to_string(p.n), std::to_string(row.cost_without),
        std::to_string(row.cost_with), std::to_string(reduction)});
  }
  table.Print(std::cout);

  std::cout << "\nShape check (paper §5.1.2): savings are positive for "
               "every media type and grow toward lower bit-rates — tens "
               "of dollars for HDTV up to tens of thousands for mp3 at "
               "full load.\n";
  std::cout << "CSV: " << bench::CsvPath("fig8_total_cost_reduction")
            << "\n";
  bench::PrintSweep(runner);
  return 0;
}
