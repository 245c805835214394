// Ablation bench for the §3.1.2 placement decision: buffer the streams
// round-robin (each disk IO whole on one device — what Theorem 2
// assumes) vs striping every disk IO across the bank. The paper argues
// qualitatively that striping "can be undesirable" because it shrinks
// the per-device IO size; this bench quantifies the penalty across bank
// sizes and bit-rates.
//
// The analytic (media, k) grid and the two simulated cross-check runs
// execute as parallel sweep tasks.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/mems_buffer.h"
#include "model/stream.h"
#include "server/mems_pipeline_server.h"

int main() {
  using namespace memstream;

  auto disk = bench::AnalyticFutureDisk();
  const auto latency = model::DiskLatencyFn(disk);

  std::cout << "Placement ablation: round-robin streams vs striped IOs\n"
            << "  (N = 200 streams, T_disk = 60 s, G3 devices)\n\n";
  TablePrinter table({"Media", "k", "DRAM round-robin [MB]",
                      "DRAM striped [MB]", "Striping penalty"});
  CsvWriter csv(bench::CsvPath("ablation_placement"),
                {"media", "k", "dram_rr_mb", "dram_striped_mb"});

  const std::int64_t n = 200;
  const Seconds t_disk = 60.0;
  const std::vector<std::int64_t> bank_sizes = {2, 4, 8};

  struct Point {
    model::StreamClass media;
    std::int64_t k = 0;
  };
  std::vector<Point> points;
  for (const auto& media : model::PaperStreamClasses()) {
    if (media.bit_rate * n >= 300 * kMBps) continue;  // disk-infeasible
    for (std::int64_t k : bank_sizes) points.push_back({media, k});
  }
  if (bench::SmokeMode() && points.size() > 3) points.resize(3);

  struct Row {
    bool ok = false;
    Bytes dram_rr = 0;
    Bytes dram_striped = 0;
  };
  exp::SweepRunner runner;
  const auto rows = runner.Map(
      static_cast<std::int64_t>(points.size()),
      [&points, &latency, n, t_disk](exp::TaskContext& ctx) {
        const Point& p = points[static_cast<std::size_t>(ctx.index())];
        ctx.AddEvents(2);  // round-robin + striped solves
        Row row;
        model::MemsBufferParams params;
        params.k = p.k;
        params.disk.rate = 300 * kMBps;
        params.disk.latency = latency(n);
        params.mems = bench::MemsProfileAtRatio(5.0);
        auto rr =
            model::SolveMemsBuffer(n, p.media.bit_rate, params, t_disk);
        params.placement = model::BufferPlacement::kStripedIos;
        auto striped =
            model::SolveMemsBuffer(n, p.media.bit_rate, params, t_disk);
        if (!rr.ok() || !striped.ok()) return row;
        row.ok = true;
        row.dram_rr = rr.value().dram_total;
        row.dram_striped = striped.value().dram_total;
        return row;
      });
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const Row& row = rows[i];
    if (!row.ok) {
      table.AddRow({p.media.name, TablePrinter::Cell(p.k), "-", "-", "-"});
      continue;
    }
    table.AddRow({p.media.name, TablePrinter::Cell(p.k),
                  TablePrinter::Cell(ToMB(row.dram_rr), 2),
                  TablePrinter::Cell(ToMB(row.dram_striped), 2),
                  TablePrinter::Cell(row.dram_striped / row.dram_rr, 1) +
                      "x"});
    csv.AddRow(std::vector<std::string>{
        p.media.name, std::to_string(p.k),
        std::to_string(ToMB(row.dram_rr)),
        std::to_string(ToMB(row.dram_striped))});
  }
  table.Print(std::cout);

  // Execute both placements (N = 40, k = 4) to confirm the analytic
  // penalty is what the running schedules actually pay.
  {
    device::DiskParameters uniform = device::FutureDisk2007();
    uniform.inner_rate = uniform.outer_rate;
    std::cout << "\nSimulated cross-check (N=40 DVD, k=4):\n";
    const std::vector<model::BufferPlacement> placements = {
        model::BufferPlacement::kRoundRobinStreams,
        model::BufferPlacement::kStripedIos};
    const Seconds sim_time = bench::SmokeDuration(30.0, 3.0);

    struct SimRow {
      bool ok = false;
      Seconds t_mems = 0;
      double dram_per_stream_kb = 0;
      std::int64_t underflows = 0;
      std::int64_t overruns = 0;
      double peak_dram_mb = 0;
    };
    const auto sim_rows = runner.Map(
        static_cast<std::int64_t>(placements.size()),
        [&placements, &uniform, sim_time](exp::TaskContext& ctx) {
          const auto placement =
              placements[static_cast<std::size_t>(ctx.index())];
          SimRow row;
          auto fresh = device::DiskDrive::Create(uniform).value();
          model::MemsBufferParams params;
          params.k = 4;
          params.disk = model::DiskProfile(fresh, 40);
          params.mems = bench::MemsProfileAtRatio(5.0);
          params.mems.capacity = 10 * kGB;
          params.placement = placement;
          auto range = model::FeasibleTdiskRange(40, 1 * kMBps, params);
          if (!range.ok()) return row;
          auto sizing = model::SolveMemsBuffer(
              40, 1 * kMBps, params,
              std::min(range.value().lower * 1.5, range.value().upper));
          if (!sizing.ok()) return row;

          server::MemsPipelineConfig config;
          config.t_disk = sizing.value().t_disk;
          config.t_mems = sizing.value().t_mems_snapped;
          config.placement = placement;
          std::vector<device::MemsDevice> bank;
          for (int i = 0; i < 4; ++i) {
            bank.push_back(
                device::MemsDevice::Create(device::MemsG3()).value());
          }
          std::vector<server::StreamSpec> streams;
          const Bytes stride = fresh.Capacity() * 0.9 / 40;
          for (std::int64_t i = 0; i < 40; ++i) {
            streams.push_back({i, 1 * kMBps,
                               stride * static_cast<double>(i),
                               std::max(stride, 2 * kMB * config.t_disk)});
          }
          auto server = server::MemsPipelineServer::Create(
              &fresh, std::move(bank), streams, config);
          if (!server.ok() || !server.value().Run(sim_time).ok()) {
            return row;
          }
          const auto& r = server.value().report();
          ctx.AddEvents(r.ios_completed);
          row.ok = true;
          row.t_mems = config.t_mems;
          row.dram_per_stream_kb =
              sizing.value().s_mems_dram_schedulable / kKB;
          row.underflows = r.qos.underflow_events;
          row.overruns = r.mems.overruns;
          row.peak_dram_mb = ToMB(r.peak_dram);
          return row;
        });
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const SimRow& row = sim_rows[i];
      if (!row.ok) continue;
      std::printf(
          "  %-12s T_mems %6.1f ms, DRAM/stream %7.1f kB: underflows "
          "%lld, MEMS overruns %lld, sim peak DRAM %.2f MB\n",
          model::BufferPlacementName(placements[i]), ToMs(row.t_mems),
          row.dram_per_stream_kb, static_cast<long long>(row.underflows),
          static_cast<long long>(row.overruns), row.peak_dram_mb);
    }
  }

  std::cout << "\nReading: the striping penalty tracks the bank size "
               "(every device pays every IO's positioning cost), "
               "vindicating the paper's round-robin routing — and both "
               "placements execute jitter-free at their own sizing, so "
               "the penalty is pure DRAM cost, not feasibility.\n";
  std::cout << "CSV: " << bench::CsvPath("ablation_placement") << "\n";
  bench::PrintSweep(runner);
  return 0;
}
