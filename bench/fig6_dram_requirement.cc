// Regenerates Fig. 6: system-wide DRAM requirement vs number of streams
// for the four media types (mp3 / DivX / DVD / HDTV), (a) streaming
// directly from the FutureDisk and (b) through a k = 2 bank of G3 MEMS
// buffer devices (unlimited buffering, per the §5.1.1 relaxation).
//
// The (media, N) grid is evaluated on the parallel sweep engine; rows
// are collected in index order so the table and CSV are byte-identical
// to a serial run.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/mems_buffer.h"
#include "model/stream.h"
#include "model/timecycle.h"

int main() {
  using namespace memstream;

  const auto latency = bench::PaperConservativeDiskLatency();
  const auto mems = bench::MemsProfileAtRatio(5.0);  // the G3 device

  std::cout << "Fig. 6: DRAM requirement for various media types\n"
            << "  (a) without MEMS buffer: Theorem 1 (disk IO latency "
               "charged at "
            << ToMs(latency(1))
            << " ms -- see bench_common.h calibration note)\n"
            << "  (b) with a k=2 G3 MEMS buffer: Theorem 2 supremum "
               "sizing\n\n";

  TablePrinter table({"Media", "N", "DRAM w/o MEMS [GB]",
                      "DRAM with MEMS [GB]", "Reduction"});
  CsvWriter csv(bench::CsvPath("fig6_dram_requirement"),
                {"media", "bit_rate_bps", "n", "dram_without_gb",
                 "dram_with_gb"});

  // Sweep points, flattened (media x stream count), in emission order.
  struct Point {
    model::StreamClass media;
    std::int64_t n = 0;
  };
  std::vector<Point> points;
  for (const auto& media : model::PaperStreamClasses()) {
    const std::int64_t cap =
        model::MaxStreamsBandwidthBound(300 * kMBps, media.bit_rate);
    // Log-spaced sweep plus points near the disk's bandwidth bound,
    // where the requirement diverges (the figure's right edge).
    std::vector<std::int64_t> stream_counts;
    for (std::int64_t n = 1; n < cap / 2;) {
      stream_counts.push_back(n);
      n = n < 5 ? n + 1 : n * 10 / 3;
    }
    for (double frac : {0.5, 0.7, 0.85, 0.93, 0.97}) {
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
      if (n > cap || n < 1) continue;
      points.push_back({media, n});
    }
  }

  struct Row {
    bool valid = false;
    double without_gb = 0;
    double with_gb = std::numeric_limits<double>::quiet_NaN();
  };
  exp::SweepRunner runner;
  const auto rows = runner.Map(
      static_cast<std::int64_t>(points.size()),
      [&points, &latency, &mems](exp::TaskContext& ctx) {
        const Point& p = points[static_cast<std::size_t>(ctx.index())];
        Row row;
        model::DeviceProfile disk_profile;
        disk_profile.rate = 300 * kMBps;
        disk_profile.latency = latency(p.n);
        auto without =
            model::TotalBufferSize(p.n, p.media.bit_rate, disk_profile);
        if (!without.ok()) return row;
        row.valid = true;
        row.without_gb = ToGB(without.value());
        if (p.n >= 2) {
          model::MemsBufferParams params;
          params.k = 2;
          params.disk = disk_profile;
          params.mems = mems;
          params.mems_capacity_override =
              std::numeric_limits<double>::infinity();
          auto with_mems =
              model::SolveMemsBuffer(p.n, p.media.bit_rate, params);
          if (with_mems.ok()) {
            row.with_gb = ToGB(with_mems.value().dram_total);
          }
        }
        ctx.AddEvents(1);
        return row;
      });

  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const Row& row = rows[i];
    if (!row.valid) continue;
    const bool no_mems = std::isnan(row.with_gb);
    table.AddRow(
        {p.media.name, TablePrinter::Cell(p.n),
         TablePrinter::Cell(row.without_gb, 6),
         no_mems ? std::string("-") : TablePrinter::Cell(row.with_gb, 6),
         no_mems ? std::string("-")
                 : TablePrinter::Cell(row.without_gb / row.with_gb, 1) +
                       "x"});
    csv.AddRow(std::vector<std::string>{
        p.media.name, std::to_string(p.media.bit_rate),
        std::to_string(p.n), std::to_string(row.without_gb),
        no_mems ? std::string() : std::to_string(row.with_gb)});
  }
  table.Print(std::cout);

  std::cout << "\nShape check (paper §5.1.1): near full disk utilization "
               "the no-MEMS DRAM requirement spans ~1 GB (HDTV) to ~1 TB "
               "(mp3); the MEMS buffer cuts it by roughly an order of "
               "magnitude.\n";
  std::cout << "CSV: " << bench::CsvPath("fig6_dram_requirement") << "\n";
  bench::PrintSweep(runner);
  return 0;
}
