// Regenerates Fig. 7: percentage reduction in buffering cost on the
// "off-the-shelf" 2007 system (DRAM capped at 5 GB; 20 GB of MEMS
// buffering from two devices costing $20) as the latency ratio
// L̄_disk(avg) / L̄_mems(max) sweeps 1..10.
//
//  (a) curves for the four media types;
//  (b) contour regions (25% / 50% / 75%) over the (ratio, bit-rate)
//      plane.
//
// For each configuration the server throughput target N is the maximum
// the *MEMS-less* system supports (DRAM- or bandwidth-limited), and the
// cost comparison holds N fixed, as in §5.1.3.
//
// Disk latency calibration: §5.1.3 states the no-MEMS DRAM requirement
// for 10 MB/s streams is "approximately 1.5GB", which Theorem 1 yields
// only when each disk IO is charged the average seek plus a FULL
// rotation (2.8 + 3.0 = 5.8 ms); our optimistic elevator estimate
// (~2.4 ms at N = 29) would make the HDTV workload too cheap to ever
// amortize the $20 MEMS buffer. This bench therefore uses the
// conservative 5.8 ms charge throughout, reproducing the paper's anchor.
//
// Both the (a) curve grid and the (b) contour grid are evaluated on the
// parallel sweep engine; emission stays in serial grid order.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/cost.h"
#include "model/mems_buffer.h"
#include "model/stream.h"
#include "model/timecycle.h"

namespace {

using namespace memstream;

constexpr Bytes kDramCap = 5 * kGB;
constexpr std::int64_t kBufferDevices = 2;
constexpr Dollars kMemsCost = 20;  // 2 x $10

struct Point {
  double percent_reduction = 0;
  std::int64_t n = 0;
  bool feasible = false;
};

Point Evaluate(BytesPerSecond bit_rate, double ratio,
               const model::LatencyFn& latency) {
  Point out;
  // Throughput target: the best the MEMS-less box can do with 5 GB.
  out.n = model::MaxStreamsWithBuffer(kDramCap, bit_rate, 300 * kMBps,
                                      latency);
  if (out.n < 2) return out;

  model::DeviceProfile disk_profile;
  disk_profile.rate = 300 * kMBps;
  disk_profile.latency = latency(out.n);
  auto without = model::TotalBufferSize(out.n, bit_rate, disk_profile);
  if (!without.ok()) return out;
  const Dollars cost_without = without.value() * 20.0 / kGB;

  model::MemsBufferParams params;
  params.k = kBufferDevices;
  params.disk = disk_profile;
  params.mems = bench::MemsProfileAtRatio(ratio);
  auto with_mems = model::SolveMemsBuffer(out.n, bit_rate, params);
  if (!with_mems.ok()) return out;
  if (with_mems.value().dram_total > kDramCap) return out;
  const Dollars cost_with =
      kMemsCost + with_mems.value().dram_total * 20.0 / kGB;

  out.percent_reduction = model::PercentReduction(cost_without, cost_with);
  out.feasible = true;
  return out;
}

}  // namespace

int main() {
  // Average seek + full rotation (see calibration note above).
  const model::LatencyFn latency = bench::PaperConservativeDiskLatency();
  const Seconds conservative = latency(1);
  const int max_ratio = bench::SmokeMode() ? 3 : 10;

  std::cout << "Fig. 7(a): percentage cost reduction vs latency ratio\n"
            << "  (DRAM <= 5 GB, MEMS buffer = 2 devices / 20 GB / $20,\n"
            << "   disk IO latency charged at "
            << ToMs(conservative) << " ms -- see calibration note)\n\n";
  TablePrinter curves({"Latency ratio", "mp3 10KB/s", "DivX 100KB/s",
                       "DVD 1MB/s", "HDTV 10MB/s"});
  CsvWriter csv_a(bench::CsvPath("fig7a_cost_reduction"),
                  {"ratio", "media", "bit_rate_bps", "n",
                   "percent_reduction"});

  const auto media_classes = model::PaperStreamClasses();
  exp::SweepRunner runner;

  // (a): the (ratio, media) grid, flattened row-major.
  const std::int64_t media_count =
      static_cast<std::int64_t>(media_classes.size());
  const auto curve_points = runner.Map(
      max_ratio * media_count,
      [&media_classes, &latency, media_count](exp::TaskContext& ctx) {
        const int ratio = 1 + static_cast<int>(ctx.index() / media_count);
        const auto& media =
            media_classes[static_cast<std::size_t>(ctx.index() % media_count)];
        ctx.AddEvents(1);
        return Evaluate(media.bit_rate, ratio, latency);
      });
  for (int ratio = 1; ratio <= max_ratio; ++ratio) {
    std::vector<std::string> row{TablePrinter::Cell(
        static_cast<std::int64_t>(ratio))};
    for (std::int64_t m = 0; m < media_count; ++m) {
      const auto& media = media_classes[static_cast<std::size_t>(m)];
      const Point& p = curve_points[static_cast<std::size_t>(
          (ratio - 1) * media_count + m)];
      row.push_back(p.feasible
                        ? TablePrinter::Cell(p.percent_reduction, 1) + "%"
                        : "-");
      csv_a.AddRow(std::vector<std::string>{
          std::to_string(ratio), media.name,
          std::to_string(media.bit_rate), std::to_string(p.n),
          p.feasible ? std::to_string(p.percent_reduction) : ""});
    }
    curves.AddRow(row);
  }
  curves.Print(std::cout);

  std::cout << "\nFig. 7(b): cost-reduction regions over the (latency "
               "ratio, bit-rate) plane\n"
            << "  legend: '#' >75%   '+' 50-75%   '.' 25-50%   ' ' <25%  "
               " 'x' infeasible\n\n";
  CsvWriter csv_b(bench::CsvPath("fig7b_cost_reduction_regions"),
                  {"ratio", "bit_rate_bps", "percent_reduction"});
  std::vector<BytesPerSecond> rates;
  for (double b = 10 * kKBps; b <= 10 * kMBps * 1.0001; b *= 1.77827941) {
    rates.push_back(b);  // 12 log-spaced points per decade-and-a-half
  }
  if (bench::SmokeMode() && rates.size() > 4) rates.resize(4);

  // (b): the (bit-rate, ratio) plane, highest rate first as printed.
  const std::int64_t rate_count = static_cast<std::int64_t>(rates.size());
  const auto region_points = runner.Map(
      rate_count * max_ratio,
      [&rates, &latency, rate_count, max_ratio](exp::TaskContext& ctx) {
        const std::int64_t rate_idx =
            rate_count - 1 - ctx.index() / max_ratio;  // reverse order
        const int ratio = 1 + static_cast<int>(ctx.index() % max_ratio);
        ctx.AddEvents(1);
        return Evaluate(rates[static_cast<std::size_t>(rate_idx)], ratio,
                        latency);
      });
  std::cout << "  bit-rate [KB/s] | ratio 1..10\n";
  for (std::int64_t i = 0; i < rate_count; ++i) {
    const BytesPerSecond rate =
        rates[static_cast<std::size_t>(rate_count - 1 - i)];
    std::printf("  %14.0f | ", rate / kKBps);
    for (int ratio = 1; ratio <= max_ratio; ++ratio) {
      const Point& p = region_points[static_cast<std::size_t>(
          i * max_ratio + (ratio - 1))];
      char c = 'x';
      if (p.feasible) {
        c = p.percent_reduction >= 75   ? '#'
            : p.percent_reduction >= 50 ? '+'
            : p.percent_reduction >= 25 ? '.'
                                        : ' ';
      }
      std::printf("%c ", c);
      csv_b.AddRow(std::vector<std::string>{
          std::to_string(ratio), std::to_string(rate),
          p.feasible ? std::to_string(p.percent_reduction) : ""});
    }
    std::printf("\n");
  }

  std::cout << "\nShape check (paper §5.1.3): reduction grows with the "
               "latency ratio; HDTV is capped near 30% (its no-MEMS DRAM "
               "need is only ~1.5 GB); most of the plane sits above "
               "50-75%.\n";
  std::cout << "CSV: " << bench::CsvPath("fig7a_cost_reduction") << ", "
            << bench::CsvPath("fig7b_cost_reduction_regions") << "\n";
  bench::PrintSweep(runner);
  return 0;
}
