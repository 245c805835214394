// Million-stream farm ablation: the scale-out end-game of the paper's
// admission math. A farm of striped-array nodes (each collapsed to one
// fat disk, the Corollary-2 idiom) admits a Zipf workload through the
// farm router under per-shard Theorem-1/2 budgets, then rides out
// seeded node failures. Two placements face the same offered load:
//
//  - consistent hashing (one copy per title): a failed node's streams
//    have nowhere to go until the repair;
//  - popularity-aware (Zipf head replicated across R shards, tail
//    hashed): head streams fail over to surviving replicas, so
//    availability degrades gracefully.
//
// Full mode sustains >= 1M concurrently admitted streams across 128
// shards with per-shard QoS audits on; smoke mode trims to a 4-shard,
// ~1k-stream farm with the same node-failure script. Both policies'
// merged farm reports land next to the CSV as
// bench_results/millionfarm_<policy>.report.json.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "device/device_catalog.h"
#include "farm/sharded_farm.h"
#include "fault/fault_plan.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"

int main() {
  using namespace memstream;

  const bool smoke = bench::SmokeMode();

  // One shard node: a 5-way striped FutureDisk array collapsed to a
  // single device (uniform-rate model). Smoke keeps a single disk.
  device::DiskParameters node = device::FutureDisk2007();
  node.inner_rate = node.outer_rate;
  if (!smoke) {
    node.name = "FutureNode5x";
    node.outer_rate *= 5;
    node.inner_rate = node.outer_rate;
    node.capacity *= 5;
  }

  farm::ShardedFarmConfig base;
  base.num_shards = smoke ? 4 : 128;
  base.num_titles = smoke ? 200 : 20000;
  base.zipf_exponent = 0.8;
  // Offered load sits ~15% under the farm's aggregate Theorem-1 capacity
  // so surviving shards keep failover headroom; the Zipf hot spots still
  // saturate individual shards under consistent hashing.
  base.offered_streams = smoke ? 1000 : 1080000;
  base.bit_rate = 100 * kKBps;
  base.node_disk = node;
  base.dram_budget_per_shard = smoke ? 256 * kMB : 48 * kGB;
  base.duration = smoke ? 6 : 90;
  // A 10% replicated head captures ~63% of the Zipf(0.8) access mass —
  // the slice that can fail over when a node dies.
  base.replication_budget = 0.10;
  base.virtual_nodes = 64;
  base.seed = 42;
  base.audit = true;

  // Node-failure script: four shards (one in smoke) fail mid-run and
  // come back at 75% of the horizon.
  {
    std::vector<fault::FaultEvent> events;
    const double t_fail = 0.4 * base.duration;
    const double t_repair = 0.75 * base.duration;
    const std::int64_t downed = smoke ? 1 : 4;
    for (std::int64_t d = 0; d < downed; ++d) {
      fault::FaultEvent fail;
      fail.time = t_fail;
      fail.kind = fault::FaultKind::kMemsDeviceFail;
      fail.device = d;
      events.push_back(fail);
      fault::FaultEvent repair;
      repair.time = t_repair;
      repair.kind = fault::FaultKind::kMemsDeviceRepair;
      repair.device = d;
      events.push_back(repair);
    }
    base.faults = fault::FaultPlan::FromScript(events);
  }

  std::cout << "Million-farm ablation: " << base.offered_streams
            << " offered DivX streams over " << base.num_shards
            << " shard nodes (" << node.outer_rate / kMBps
            << " MB/s each), node failure at t=" << 0.4 * base.duration
            << " s, repair at t=" << 0.75 * base.duration << " s\n\n";

  struct Run {
    farm::PlacementPolicy policy;
    std::int64_t replicas;
  };
  const std::vector<Run> runs = {
      {farm::PlacementPolicy::kConsistentHash, 1},
      {farm::PlacementPolicy::kPopularityAware, 4},
  };

  TablePrinter table({"Placement", "Admitted", "Availability", "Failovers",
                      "Shed", "Readmits", "Underflows", "QoS violations",
                      "Peak DRAM/shard", "Mean util"});
  CsvWriter csv(bench::CsvPath("ablation_millionfarm"),
                {"popularity_aware", "shards", "offered", "admitted",
                 "availability", "failovers", "shed", "readmits",
                 "violations", "peak_dram_gb"});

  double total_wall = 0;
  std::int64_t total_admitted = 0;
  std::int64_t total_tasks = 0;
  std::int64_t total_shard_epochs = 0;
  int sweep_threads = 1;

  for (const Run& run : runs) {
    farm::ShardedFarmConfig cfg = base;
    cfg.policy = run.policy;
    cfg.replicas = run.replicas;

    // Journal + SLO telemetry only at smoke scale: a million journal
    // slots would dominate the run's memory for no analytic gain.
    obs::StreamJournal journal;
    obs::SloMonitor slo;
    obs::MetricsRegistry metrics;
    if (smoke) {
      cfg.journal = &journal;
      cfg.slo = &slo;
    }
    cfg.metrics = &metrics;

    auto result = farm::RunShardedFarm(cfg);
    if (!result.ok()) {
      std::cerr << "farm run failed (" << farm::PlacementPolicyName(run.policy)
                << "): " << result.status().ToString() << "\n";
      return 1;
    }
    const farm::FarmRunReport& r = result.value();
    total_wall += r.sweep.wall_seconds;
    total_admitted += r.admitted;
    total_tasks += r.sweep.tasks;
    total_shard_epochs += r.shard_epochs;
    sweep_threads = r.sweep.threads;

    table.AddRow({r.policy, TablePrinter::Cell(r.admitted),
                  TablePrinter::Cell(r.availability, 4),
                  TablePrinter::Cell(r.failovers),
                  TablePrinter::Cell(r.shed_actions),
                  TablePrinter::Cell(r.readmits),
                  TablePrinter::Cell(r.underflow_events),
                  TablePrinter::Cell(r.qos_violations),
                  TablePrinter::Cell(r.peak_dram_per_shard / kGB, 2) + " GB",
                  TablePrinter::Cell(r.mean_utilization, 2)});
    csv.AddRow(std::vector<double>{
        run.policy == farm::PlacementPolicy::kPopularityAware ? 1.0 : 0.0,
        static_cast<double>(r.shards), static_cast<double>(r.offered),
        static_cast<double>(r.admitted), r.availability,
        static_cast<double>(r.failovers),
        static_cast<double>(r.shed_actions),
        static_cast<double>(r.readmits),
        static_cast<double>(r.qos_violations), r.peak_dram_per_shard / kGB});

    obs::RunReport report;
    report.title = std::string("millionfarm ") + r.policy;
    report.AddConfig("policy", r.policy);
    report.AddConfig("shards", std::to_string(r.shards));
    report.AddConfig("titles", std::to_string(r.titles));
    report.AddConfig("replicas", std::to_string(run.replicas));
    report.AddConfig("offered", std::to_string(r.offered));
    report.AddConfig("bit_rate", std::to_string(cfg.bit_rate));
    report.AddConfig("duration", std::to_string(cfg.duration));
    report.AddSimulated("admitted", static_cast<double>(r.admitted));
    report.AddSimulated("availability", r.availability);
    report.AddSimulated("qos_violations",
                        static_cast<double>(r.qos_violations));
    report.AddSimulated("underflow_events",
                        static_cast<double>(r.underflow_events));
    report.AddSimulated("peak_dram_per_shard", r.peak_dram_per_shard);
    const obs::FarmBlock block = farm::BuildFarmBlock(r);
    report.farm = &block;
    report.metrics = &metrics;
    if (smoke) {
      report.streams = &journal;
      report.slo = &slo;
    }
    const std::string path =
        bench::ResultsDir() + "/millionfarm_" + r.policy + ".report.json";
    if (auto st = report.WriteFile(path); !st.ok()) {
      std::cerr << "report write failed: " << st.ToString() << "\n";
      return 1;
    }
    std::cout << farm::PlacementPolicyName(run.policy) << ": report -> "
              << path << "\n";
  }
  std::cout << "\n";
  table.Print(std::cout);

  std::cout << "\nReading: both placements admit against the same "
               "per-shard Theorem-1/2 budgets, but only the replicated "
               "Zipf head can fail over when a node dies — consistent "
               "hashing sheds every resident of the failed shards until "
               "repair, popularity-aware re-admits the head on surviving "
               "replicas within the same DRAM envelope.\n";
  std::cout << "CSV: " << bench::CsvPath("ablation_millionfarm") << "\n";

  // Shard-merge throughput: admitted streams per second of parallel
  // farm execution (not IOs — admission routing plus the per-shard merge
  // is the scaling cost this bench guards).
  std::printf(
      "Sweep: %lld shard-epoch simulations for %lld shard-epochs on %d "
      "thread(s), %.3f s wall, %lld streams admitted (%.0f streams/s)\n",
      static_cast<long long>(total_tasks),
      static_cast<long long>(total_shard_epochs), sweep_threads, total_wall,
      static_cast<long long>(total_admitted),
      total_wall > 0 ? static_cast<double>(total_admitted) / total_wall : 0);
  return 0;
}
