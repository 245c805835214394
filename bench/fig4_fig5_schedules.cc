// Renders the paper's schedule diagrams from actual execution traces:
//
//  Fig. 4 — a single MEMS IO cycle with N = 10 streams through one
//           buffer device: N MEMS->DRAM transfers interleaved with M
//           disk->MEMS transfers;
//  Fig. 5 — N = 45 streams across a k = 3 bank: every third disk IO
//           routed to the same device, 15 DRAM transfers per device per
//           disk transfer.
//
// The pipeline server runs with tracing enabled and the bench prints a
// time-ordered transcript of one steady-state window per scenario. The
// two scenarios execute as parallel sweep tasks; the transcripts are
// printed serially from the collected window records.

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "model/mems_buffer.h"
#include "model/profiles.h"
#include "server/mems_pipeline_server.h"

namespace {

using namespace memstream;

device::DiskParameters UniformDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  return p;
}

struct Scenario {
  const char* title;
  std::int64_t n;
  std::int64_t k;
};

struct WindowRecord {
  Seconds time = 0;
  std::string actor;
  std::string detail;
  std::int64_t stream_id = 0;
  double bytes = 0;
};

struct ScenarioResult {
  bool ran = false;          // sizing feasible and Run() succeeded
  std::string create_error;  // non-empty: Create failed, print and skip
  Seconds t_disk = 0;
  Seconds t_mems = 0;
  std::int64_t m = 0;
  std::vector<WindowRecord> window;  // kIoCompleted within the window
  std::int64_t underflows = 0;
  std::int64_t overruns = 0;
};

ScenarioResult RunScenario(const Scenario& scenario,
                           exp::TaskContext& ctx) {
  ScenarioResult out;
  auto disk = device::DiskDrive::Create(UniformDisk()).value();
  const BytesPerSecond b = 1 * kMBps;
  const std::int64_t n = scenario.n;
  const std::int64_t k = scenario.k;

  model::MemsBufferParams params;
  params.k = k;
  params.disk = model::DiskProfile(disk, n);
  params.mems = model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
  auto range = model::FeasibleTdiskRange(n, b, params);
  if (!range.ok()) return out;
  auto sizing = model::SolveMemsBuffer(
      n, b, params, std::min(range.value().lower * 1.5,
                             range.value().upper));
  if (!sizing.ok()) return out;

  server::MemsPipelineConfig config;
  config.t_disk = sizing.value().t_disk;
  config.t_mems = sizing.value().t_mems_snapped;

  std::vector<device::MemsDevice> bank;
  for (std::int64_t i = 0; i < k; ++i) {
    device::MemsParameters p = device::MemsG3();
    p.name = "MEMS" + std::to_string(i);
    bank.push_back(device::MemsDevice::Create(p).value());
  }
  std::vector<server::StreamSpec> streams;
  const Bytes stride = disk.Capacity() * 0.9 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    streams.push_back({i, b, stride * static_cast<double>(i),
                       std::max(stride, 3 * b * config.t_disk)});
  }

  sim::TraceLog trace;
  config.sinks.trace = &trace;
  auto server = server::MemsPipelineServer::Create(
      &disk, std::move(bank), streams, config);
  if (!server.ok()) {
    out.create_error = server.status().ToString();
    return out;
  }
  const Seconds horizon = config.t_disk * 6;
  if (!server.value().Run(horizon).ok()) return out;
  ctx.AddEvents(server.value().report().ios_completed);

  out.ran = true;
  out.t_disk = config.t_disk;
  out.t_mems = config.t_mems;
  out.m = sizing.value().m;

  // Steady-state window: the full disk cycle starting after 4 cycles.
  const Seconds w0 = config.t_disk * 4;
  const Seconds w1 = w0 + config.t_disk;
  for (const auto& r : trace.records()) {
    if (r.time < w0 || r.time >= w1) continue;
    if (r.kind != sim::TraceKind::kIoCompleted) continue;
    if (r.detail != "MEMS->DRAM read" && r.detail != "disk->MEMS write") {
      continue;
    }
    out.window.push_back({r.time, r.actor, r.detail, r.stream_id, r.bytes});
  }
  const auto& report = server.value().report();
  out.underflows = report.qos.underflow_events;
  out.overruns = report.mems.overruns;
  return out;
}

void EmitScenario(const Scenario& scenario, const ScenarioResult& result,
                  CsvWriter& csv) {
  if (!result.create_error.empty()) {
    std::cout << scenario.title << ": " << result.create_error << "\n";
    return;
  }
  if (!result.ran) return;
  std::cout << scenario.title << "\n"
            << "  T_disk = " << ToMs(result.t_disk)
            << " ms, T_mems = " << ToMs(result.t_mems)
            << " ms (M = " << result.m << " of N = " << scenario.n
            << " per Eq. 8), schedule window = one steady-state disk "
               "cycle:\n";

  std::map<std::string, std::pair<int, int>> per_actor;  // reads, writes
  int shown = 0;
  for (const auto& r : result.window) {
    const bool is_read = r.detail == "MEMS->DRAM read";
    auto& counts = per_actor[r.actor];
    (is_read ? counts.first : counts.second) += 1;
    if (shown < 14) {
      std::printf("    t=%8.2f ms  %-6s %-16s stream %2lld  %6.0f kB\n",
                  ToMs(r.time), r.actor.c_str(), r.detail.c_str(),
                  static_cast<long long>(r.stream_id), r.bytes / kKB);
      ++shown;
    }
    csv.AddRow(std::vector<std::string>{
        scenario.title, std::to_string(r.time), r.actor, r.detail,
        std::to_string(r.stream_id), std::to_string(r.bytes)});
  }
  if (shown == 14) std::cout << "    ...\n";
  for (const auto& [actor, counts] : per_actor) {
    std::cout << "  " << actor << ": " << counts.first
              << " MEMS->DRAM transfers, " << counts.second
              << " disk->MEMS transfers in the window\n";
  }
  std::cout << "  over the whole run: underflows = " << result.underflows
            << ", MEMS overruns = " << result.overruns << "\n\n";
}

}  // namespace

int main() {
  std::cout << "Figs. 4/5: executed MEMS IO schedules (trace excerpts)\n\n";
  CsvWriter csv(bench::CsvPath("fig4_fig5_schedules"),
                {"scenario", "time_s", "actor", "op", "stream", "bytes"});

  std::vector<Scenario> scenarios = {
      {"Fig. 4: N=10 streams, single MEMS buffer device", 10, 1},
      {"Fig. 5: N=45 streams, k=3 MEMS bank", 45, 3}};
  if (bench::SmokeMode()) scenarios.resize(1);

  exp::SweepRunner runner;
  const auto results = runner.Map(
      static_cast<std::int64_t>(scenarios.size()),
      [&scenarios](exp::TaskContext& ctx) {
        return RunScenario(
            scenarios[static_cast<std::size_t>(ctx.index())], ctx);
      });
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EmitScenario(scenarios[i], results[i], csv);
  }

  std::cout << "Shape check: each device performs its share of DRAM "
               "transfers per cycle with disk transfers interleaved "
               "(Fig. 4), and with k=3 every third disk IO lands on the "
               "same device (Fig. 5).\n";
  std::cout << "CSV: " << bench::CsvPath("fig4_fig5_schedules") << "\n";
  bench::RecordSweep("fig4_fig5_schedules", runner);
  return 0;
}
