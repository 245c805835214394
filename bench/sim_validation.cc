// Ablation / validation bench: executes the paper's schedules in the
// discrete-event simulator and compares against the analytical sizing.
//
//  1. Fig. 4 scenario: N = 10 streams through a single MEMS buffer
//     device (nested disk / MEMS IO cycles).
//  2. Fig. 5 scenario: N = 45 streams across a k = 3 MEMS bank with
//     round-robin stream routing.
//  3. Mode comparison: direct vs MEMS-buffer vs MEMS-cache servers on
//     the same stream population — analytic DRAM vs simulated peak,
//     underflows, overruns, utilizations.
//  4. Safety margin ablation: shrinking the analytically-sized cycles
//     until the schedule breaks, showing the sizing is tight.
//
// Every simulation (the seven server configs and the six tightness
// points) is one parallel sweep task; tables are assembled serially.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "model/timecycle.h"
#include "server/media_server.h"

namespace {

using namespace memstream;

device::DiskParameters UniformDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  return p;
}

// Result<MediaServerResult> flattened for cross-thread collection.
struct RunOutcome {
  bool ok = false;
  std::string error;
  server::MediaServerResult r;
};

void Report(TablePrinter& table, const std::string& name,
            const RunOutcome& result) {
  if (!result.ok) {
    table.AddRow({name, "-", "-", "-", "-", "-", "-", result.error});
    return;
  }
  const auto& r = result.r;
  table.AddRow(
      {name, TablePrinter::Cell(ToMB(r.analytic_dram_total), 2),
       TablePrinter::Cell(ToMB(r.sim_peak_dram), 2),
       TablePrinter::Cell(r.qos.underflow_events),
       TablePrinter::Cell(r.cycle_overruns),
       TablePrinter::Cell(100 * r.disk_utilization, 1) + "%",
       TablePrinter::Cell(100 * r.mems_utilization, 1) + "%",
       r.qos.underflow_events == 0 && r.cycle_overruns == 0 ? "PASS" : "FAIL"});
}

}  // namespace

int main() {
  std::cout << "Simulation validation: executing the paper's schedules\n\n";

  TablePrinter table({"Scenario", "Analytic DRAM [MB]", "Sim peak [MB]",
                      "Underflows", "Overruns", "Disk util", "MEMS util",
                      "Verdict"});
  CsvWriter csv(bench::CsvPath("sim_validation"),
                {"scenario", "analytic_dram_mb", "sim_peak_mb",
                 "underflows", "overruns", "disk_util", "mems_util"});

  const Seconds duration = bench::SmokeDuration(60, 5);

  // Build the scenario list serially, simulate in parallel.
  std::vector<std::pair<std::string, server::MediaServerConfig>> scenarios;

  // 1. Fig. 4: single MEMS buffer device, 10 streams.
  server::MediaServerConfig fig4;
  fig4.mode = server::ServerMode::kMemsBuffer;
  fig4.disk = UniformDisk();
  fig4.k = 1;
  fig4.num_streams = 10;
  fig4.bit_rate = 1 * kMBps;
  fig4.sim_duration = duration;
  scenarios.emplace_back("Fig.4: buffer k=1 N=10 DVD", fig4);

  // 2. Fig. 5: three-device bank, 45 streams.
  server::MediaServerConfig fig5 = fig4;
  fig5.k = 3;
  fig5.num_streams = 45;
  scenarios.emplace_back("Fig.5: buffer k=3 N=45 DVD", fig5);

  // 3. Mode comparison on a common population.
  server::MediaServerConfig direct;
  direct.mode = server::ServerMode::kDirect;
  direct.disk = UniformDisk();
  direct.num_streams = 60;
  direct.bit_rate = 1 * kMBps;
  direct.sim_duration = duration;
  scenarios.emplace_back("Direct N=60 DVD", direct);

  server::MediaServerConfig buffered = direct;
  buffered.mode = server::ServerMode::kMemsBuffer;
  buffered.k = 2;
  scenarios.emplace_back("Buffer k=2 N=60 DVD", buffered);

  server::MediaServerConfig cached = direct;
  cached.mode = server::ServerMode::kMemsCache;
  cached.k = 2;
  cached.cache_policy = model::CachePolicy::kReplicated;
  cached.cached_fraction_of_streams = 0.5;
  scenarios.emplace_back("Cache repl k=2 N=60 DVD", cached);

  server::MediaServerConfig striped = cached;
  striped.cache_policy = model::CachePolicy::kStriped;
  scenarios.emplace_back("Cache striped k=2 N=60 DVD", striped);

  // Higher-rate sanity point.
  server::MediaServerConfig hdtv = direct;
  hdtv.num_streams = 20;
  hdtv.bit_rate = 10 * kMBps;
  scenarios.emplace_back("Direct N=20 HDTV", hdtv);

  if (bench::SmokeMode() && scenarios.size() > 3) scenarios.resize(3);

  exp::SweepRunner runner;
  const auto outcomes = runner.Map(
      static_cast<std::int64_t>(scenarios.size()),
      [&scenarios](exp::TaskContext& ctx) {
        RunOutcome out;
        auto result = server::RunMediaServer(
            scenarios[static_cast<std::size_t>(ctx.index())].second);
        if (result.ok()) {
          out.ok = true;
          out.r = result.value();
          ctx.AddEvents(out.r.ios_completed);
        } else {
          out.error = result.status().ToString();
        }
        return out;
      });

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& [name, config] = scenarios[i];
    const RunOutcome& outcome = outcomes[i];
    Report(table, name, outcome);
    if (outcome.ok) {
      const auto& r = outcome.r;
      csv.AddRow(std::vector<std::string>{
          name, std::to_string(ToMB(r.analytic_dram_total)),
          std::to_string(ToMB(r.sim_peak_dram)),
          std::to_string(r.qos.underflow_events),
          std::to_string(r.cycle_overruns),
          std::to_string(r.disk_utilization),
          std::to_string(r.mems_utilization)});
    }
  }
  table.Print(std::cout);

  // 4. Tightness ablation: shrink the analytically-sized direct-mode
  // cycle by a factor f and watch the schedule break.
  std::cout << "\nTightness ablation (direct mode, N=60 DVD): running "
               "with cycle = f x Theorem-1 cycle --\n";
  TablePrinter ablation(
      {"f", "Cycle [ms]", "Underflows", "Overruns", "Underflow time [s]"});
  {
    auto disk = device::DiskDrive::Create(UniformDisk()).value();
    const std::int64_t n = 60;
    const BytesPerSecond b = 1 * kMBps;
    const Seconds nominal =
        model::IoCycleLength(n, b, model::DiskProfile(disk, n)).value();
    const Seconds sim_time = bench::SmokeDuration(30.0, 3.0);
    std::vector<double> factors = {1.2, 1.0, 0.95, 0.9, 0.8, 0.6};
    if (bench::SmokeMode() && factors.size() > 2) factors.resize(2);

    struct AblationRow {
      bool ok = false;
      Seconds cycle = 0;
      std::int64_t underflows = 0;
      std::int64_t overruns = 0;
      Seconds underflow_time = 0;
    };
    const auto rows = runner.Map(
        static_cast<std::int64_t>(factors.size()),
        [&factors, n, b, nominal, sim_time](exp::TaskContext& ctx) {
          const double f =
              factors[static_cast<std::size_t>(ctx.index())];
          AblationRow row;
          // Each task needs its own drive: DiskDrive carries mutable
          // head state.
          auto fresh = device::DiskDrive::Create(UniformDisk()).value();
          server::DirectServerConfig config;
          config.cycle = nominal * f;
          std::vector<server::StreamSpec> streams;
          const Bytes stride = fresh.Capacity() * 0.9 / n;
          for (std::int64_t i = 0; i < n; ++i) {
            streams.push_back({i, b, stride * static_cast<double>(i),
                               std::max(stride, 3 * b * nominal)});
          }
          auto server = server::DirectStreamingServer::Create(
              &fresh, streams, config);
          if (!server.ok() || !server.value().Run(sim_time).ok()) {
            return row;
          }
          const auto& r = server.value().report();
          ctx.AddEvents(r.ios_completed);
          row.ok = true;
          row.cycle = config.cycle;
          row.underflows = r.qos.underflow_events;
          row.overruns = r.disk.overruns;
          row.underflow_time = r.qos.underflow_time;
          return row;
        });
    for (std::size_t i = 0; i < factors.size(); ++i) {
      const AblationRow& row = rows[i];
      if (!row.ok) {
        ablation.AddRow(
            {TablePrinter::Cell(factors[i], 2), "-", "-", "-", "-"});
        continue;
      }
      ablation.AddRow({TablePrinter::Cell(factors[i], 2),
                       TablePrinter::Cell(ToMs(row.cycle), 1),
                       TablePrinter::Cell(row.underflows),
                       TablePrinter::Cell(row.overruns),
                       TablePrinter::Cell(row.underflow_time, 3)});
    }
  }
  ablation.Print(std::cout);
  std::cout << "\nCSV: " << bench::CsvPath("sim_validation") << "\n";
  bench::RecordSweep("sim_validation", runner);
  return 0;
}
