// Scheduler ablation: time-cycle + elevator (the paper's choice, QPMS
// lineage) vs Earliest-Deadline-First (the competing class cited in §6).
// At equal per-stream buffering, sweep the stream count and report where
// each scheduler starts missing deadlines — the classical result that
// cycle-based batching dominates for homogeneous continuous media.
//
// Each load point (one TC run plus one EDF run) and each inflation
// point is a parallel sweep task; both drives are task-local.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "server/edf_server.h"
#include "server/timecycle_server.h"

namespace {

using namespace memstream;

device::DiskParameters UniformDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  return p;
}

std::vector<server::StreamSpec> Spread(std::int64_t n,
                                       BytesPerSecond bit_rate,
                                       Bytes capacity, Bytes min_extent) {
  std::vector<server::StreamSpec> streams;
  const Bytes stride = capacity * 0.9 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    streams.push_back({i, bit_rate, stride * static_cast<double>(i),
                       std::max(min_extent, stride)});
  }
  return streams;
}

}  // namespace

int main() {
  std::cout << "Scheduler ablation: time-cycle/elevator vs EDF\n"
            << "  (DVD 1 MB/s streams, equal per-stream buffering: 2 IOs "
               "of one cycle's playback)\n\n";

  TablePrinter table({"N", "Cycle [ms]", "TC underflows", "TC busy/IO [ms]",
                      "EDF underflows", "EDF busy/IO [ms]",
                      "EDF seek overhead"});
  CsvWriter csv(bench::CsvPath("ablation_edf"),
                {"n", "cycle_ms", "tc_underflows", "tc_busy_per_io_ms",
                 "edf_underflows", "edf_busy_per_io_ms"});

  const BytesPerSecond b = 1 * kMBps;
  const Seconds sim_time = bench::SmokeDuration(30.0, 2.0);
  std::vector<std::int64_t> loads = {25, 50, 100, 150, 200, 250};
  if (bench::SmokeMode() && loads.size() > 2) loads.resize(2);

  struct LoadRow {
    bool ok = false;
    Seconds cycle = 0;
    std::int64_t tc_underflows = 0;
    double tc_per_io = 0;
    std::int64_t edf_underflows = 0;
    double edf_per_io = 0;
  };
  exp::SweepRunner runner;
  const auto rows = runner.Map(
      static_cast<std::int64_t>(loads.size()),
      [&loads, b, sim_time](exp::TaskContext& ctx) {
        const std::int64_t n =
            loads[static_cast<std::size_t>(ctx.index())];
        LoadRow row;
        auto disk_tc = device::DiskDrive::Create(UniformDisk()).value();
        auto cycle =
            model::IoCycleLength(n, b, model::DiskProfile(disk_tc, n));
        if (!cycle.ok()) return row;

        server::DirectServerConfig tc_config;
        tc_config.cycle = cycle.value();
        auto tc = server::DirectStreamingServer::Create(
            &disk_tc,
            Spread(n, b, disk_tc.Capacity(), 3 * b * cycle.value()),
            tc_config);
        if (!tc.ok() || !tc.value().Run(sim_time).ok()) return row;

        auto disk_edf = device::DiskDrive::Create(UniformDisk()).value();
        server::EdfServerConfig edf_config;
        edf_config.io_playback = cycle.value();
        auto edf = server::EdfStreamingServer::Create(
            &disk_edf,
            Spread(n, b, disk_edf.Capacity(), 3 * b * cycle.value()),
            edf_config);
        if (!edf.ok() || !edf.value().Run(sim_time).ok()) return row;

        const auto& tcr = tc.value().report();
        const auto& edfr = edf.value().report();
        ctx.AddEvents(tcr.ios_completed + edfr.ios_completed);
        row.ok = true;
        row.cycle = cycle.value();
        row.tc_underflows = tcr.qos.underflow_events;
        row.tc_per_io =
            tcr.ios_completed
                ? ToMs(tcr.disk.busy /
                       static_cast<double>(tcr.ios_completed))
                : 0;
        row.edf_underflows = edfr.qos.underflow_events;
        row.edf_per_io =
            edfr.ios_completed
                ? ToMs(edfr.disk.busy /
                       static_cast<double>(edfr.ios_completed))
                : 0;
        return row;
      });
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const LoadRow& row = rows[i];
    if (!row.ok) continue;
    table.AddRow({TablePrinter::Cell(loads[i]),
                  TablePrinter::Cell(ToMs(row.cycle), 1),
                  TablePrinter::Cell(row.tc_underflows),
                  TablePrinter::Cell(row.tc_per_io, 2),
                  TablePrinter::Cell(row.edf_underflows),
                  TablePrinter::Cell(row.edf_per_io, 2),
                  TablePrinter::Cell(row.edf_per_io / row.tc_per_io, 2) +
                      "x"});
    csv.AddRow(std::vector<double>{
        static_cast<double>(loads[i]), ToMs(row.cycle),
        static_cast<double>(row.tc_underflows), row.tc_per_io,
        static_cast<double>(row.edf_underflows), row.edf_per_io});
  }
  table.Print(std::cout);

  // How much extra buffering does EDF need to become jitter-free?
  std::cout << "\nBuffer inflation for jitter-free EDF (N = 100):\n";
  TablePrinter inflation({"buffer scale f", "EDF underflows"});
  {
    auto disk_probe = device::DiskDrive::Create(UniformDisk()).value();
    auto cycle =
        model::IoCycleLength(100, b, model::DiskProfile(disk_probe, 100));
    std::vector<double> factors = {1.0, 1.2, 1.5, 2.0, 3.0, 4.0};
    if (bench::SmokeMode() && factors.size() > 2) factors.resize(2);

    struct InflationRow {
      bool ok = false;
      std::int64_t underflows = 0;
    };
    const auto inflation_rows = runner.Map(
        static_cast<std::int64_t>(factors.size()),
        [&factors, &cycle, b, sim_time](exp::TaskContext& ctx) {
          const double f =
              factors[static_cast<std::size_t>(ctx.index())];
          InflationRow row;
          auto disk = device::DiskDrive::Create(UniformDisk()).value();
          server::EdfServerConfig config;
          config.io_playback = cycle.value() * f;
          auto edf = server::EdfStreamingServer::Create(
              &disk,
              Spread(100, b, disk.Capacity(), 3 * b * config.io_playback),
              config);
          if (!edf.ok() || !edf.value().Run(sim_time).ok()) return row;
          ctx.AddEvents(edf.value().report().ios_completed);
          row.ok = true;
          row.underflows = edf.value().report().qos.underflow_events;
          return row;
        });
    for (std::size_t i = 0; i < factors.size(); ++i) {
      if (!inflation_rows[i].ok) continue;
      inflation.AddRow(
          {TablePrinter::Cell(factors[i], 1),
           TablePrinter::Cell(inflation_rows[i].underflows)});
    }
  }
  inflation.Print(std::cout);

  std::cout << "\nReading: the time-cycle server stays jitter-free at "
               "every load (its sizing is exactly Theorem 1, which has "
               "no slack to waste); EDF pays deadline-ordered "
               "(near-random) seeks — ~1.3x more disk time per IO — so "
               "at equal buffering it underflows at every load and needs "
               "severalfold larger IOs/buffers to amortize its seeks.\n";
  std::cout << "CSV: " << bench::CsvPath("ablation_edf") << "\n";
  bench::PrintSweep(runner);
  return 0;
}
