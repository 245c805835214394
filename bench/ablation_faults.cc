// Fault-tolerance ablation: replicated vs striped MEMS cache banks under
// a rising device-failure rate, with the degradation manager re-planning
// online (Theorem 2 / Eqs. 5-8 re-solved at each fault). Replication
// sustains every cached stream at k' = k-1 (Theorem 4); striping loses
// the cache content with the first device (Corollary 3) and survives
// only through disk fallback plus shedding — the availability gap this
// table quantifies.
//
// Each (policy, failure rate, trial) triple is one parallel sweep task
// with a deterministic per-trial fault plan seed, so the table is
// byte-stable at any thread count.

#include <cmath>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "fault/fault_plan.h"
#include "server/media_server.h"

int main() {
  using namespace memstream;

  std::vector<double> fail_rates = {0.0, 0.01, 0.03, 0.06};
  std::int64_t trials = 4;
  const Seconds duration = bench::SmokeDuration(30, 8);
  if (bench::SmokeMode()) {
    fail_rates = {0.0, 0.06};
    trials = 2;
  }

  constexpr std::int64_t kStreams = 30;
  constexpr BytesPerSecond kRate = 8 * kMBps;

  std::cout << "Fault ablation: " << kStreams << " streams at "
            << kRate / kMBps << " MB/s, k=2 MEMS cache, "
            << "device failures at rising rates (repair after 4 s)\n\n";

  struct Outcome {
    bool ok = false;
    double availability = 0;  ///< delivered stream-seconds fraction
    double shed_time = 0;
    std::int64_t sheds = 0;
    std::int64_t replans = 0;
    std::int64_t underflows = 0;
    std::int64_t violations = 0;
  };

  const auto policies = {model::CachePolicy::kReplicated,
                         model::CachePolicy::kStriped};
  const std::int64_t rates_n = static_cast<std::int64_t>(fail_rates.size());
  const std::int64_t tasks = 2 * rates_n * trials;

  exp::SweepRunner runner;
  const auto outcomes = runner.Map(
      tasks, [&fail_rates, trials, rates_n, duration](exp::TaskContext& ctx) {
        Outcome out;
        const std::int64_t trial = ctx.index() % trials;
        const std::int64_t rate_i = (ctx.index() / trials) % rates_n;
        const bool striped = ctx.index() >= rates_n * trials;

        fault::FaultPlanConfig pc;
        pc.horizon = duration;
        pc.num_devices = 2;
        pc.device_fail_rate = fail_rates[static_cast<std::size_t>(rate_i)];
        pc.repair_after = 4;
        auto plan = fault::FaultPlan::Generate(
            pc, 7000 + static_cast<std::uint64_t>(rate_i * 100 + trial));
        if (!plan.ok()) return out;

        server::MediaServerConfig config;
        config.mode = server::ServerMode::kMemsCache;
        config.cache_policy = striped ? model::CachePolicy::kStriped
                                      : model::CachePolicy::kReplicated;
        config.k = 2;
        config.num_streams = kStreams;
        config.cached_fraction_of_streams = 0.5;
        config.bit_rate = kRate;
        config.sim_duration = duration;
        config.fault_plan = std::move(plan).value();
        config.fault_refill_delay = 1.0;
        std::ostringstream sink;  // burst warnings belong in the report
        config.fault_warn_stream = &sink;
        auto result = server::RunMediaServer(config);
        if (!result.ok()) return out;
        ctx.AddEvents(result.value().ios_completed);

        const auto& r = result.value();
        out.ok = true;
        if (r.faults != nullptr) {
          const obs::FaultsBlock& block = r.faults->block();
          out.shed_time = block.total_shed_time;
          out.sheds = block.sheds;
          out.replans = block.replans;
        }
        const double stream_seconds =
            static_cast<double>(kStreams) * duration;
        out.availability =
            1.0 - (out.shed_time + r.qos.underflow_time) / stream_seconds;
        out.underflows = r.qos.underflow_events;
        out.violations = r.qos.violations;
        return out;
      });

  TablePrinter table({"Policy", "Fail rate (/dev/s)", "Availability",
                      "Shed time (s)", "Sheds", "Replans", "Underflows",
                      "QoS violations"});
  CsvWriter csv(bench::CsvPath("ablation_faults"),
                {"striped", "fail_rate", "availability", "shed_time",
                 "sheds", "replans", "underflows", "violations"});

  std::int64_t idx = 0;
  for (const auto policy : policies) {
    const bool striped = policy == model::CachePolicy::kStriped;
    for (std::int64_t rate_i = 0; rate_i < rates_n; ++rate_i) {
      double avail = 0, shed_time = 0;
      std::int64_t sheds = 0, replans = 0, underflows = 0, violations = 0;
      std::int64_t ok_trials = 0;
      for (std::int64_t t = 0; t < trials; ++t, ++idx) {
        const Outcome& o = outcomes[static_cast<std::size_t>(idx)];
        if (!o.ok) continue;
        ++ok_trials;
        avail += o.availability;
        shed_time += o.shed_time;
        sheds += o.sheds;
        replans += o.replans;
        underflows += o.underflows;
        violations += o.violations;
      }
      if (ok_trials == 0) continue;
      avail /= static_cast<double>(ok_trials);
      shed_time /= static_cast<double>(ok_trials);
      table.AddRow({striped ? "striped" : "replicated",
                    TablePrinter::Cell(fail_rates[static_cast<std::size_t>(
                                           rate_i)],
                                       2),
                    TablePrinter::Cell(avail, 4),
                    TablePrinter::Cell(shed_time, 2),
                    TablePrinter::Cell(sheds), TablePrinter::Cell(replans),
                    TablePrinter::Cell(underflows),
                    TablePrinter::Cell(violations)});
      csv.AddRow(std::vector<double>{
          striped ? 1.0 : 0.0, fail_rates[static_cast<std::size_t>(rate_i)],
          avail, shed_time, static_cast<double>(sheds),
          static_cast<double>(replans), static_cast<double>(underflows),
          static_cast<double>(violations)});
    }
  }
  table.Print(std::cout);

  std::cout << "\nReading: a replicated bank rides out single-device "
               "loss by reshaping its cycle (availability stays ~1.0); a "
               "striped bank must shed whatever the disk path cannot "
               "absorb, so its availability falls with the failure rate. "
               "Retained streams stay violation-free in both.\n";
  std::cout << "CSV: " << bench::CsvPath("ablation_faults") << "\n";
  bench::PrintSweep(runner);
  return 0;
}
