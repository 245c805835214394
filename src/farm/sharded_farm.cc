#include "farm/sharded_farm.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/profiler.h"
#include "farm/shard_workspace.h"
#include "model/timecycle.h"
#include "workload/popularity.h"

namespace memstream::farm {
namespace {

/// One offer of the t = 0 wave: its title and the shard that admitted
/// it (-1 = rejected). After the wave, the per-shard id lists say where
/// each admitted stream lives. Eight bytes: the wave holds one per
/// offer.
struct StreamRec {
  std::int32_t title = 0;
  std::int32_t shard = -1;
};
static_assert(sizeof(StreamRec) == 8);

/// One epoch of a planned farm run: what its fault events left.
struct EpochPlan {
  Seconds start = 0;
  Seconds end = 0;
  Seconds length = 0;        ///< end - start
  std::int64_t serving = 0;  ///< admitted streams not shed
  std::int64_t shed = 0;
  /// Per shard: its resident count, 0 for a down or empty shard (no row).
  std::vector<std::int64_t> counts;
  /// Journaled runs only: the journal marks of the epoch's fault events
  /// in event order (slot, true = readmitted, false = shed), and per
  /// shard with a row its residents, ids ascending.
  std::vector<std::pair<std::size_t, bool>> marks;
  std::vector<std::vector<std::int32_t>> ids;
};

/// Longest shared sizing table a farm builds, in streams per shard.
constexpr std::int64_t kMaxTabledStreams = std::int64_t{1} << 18;

/// Ascending stream ids: one shard's residents, or the shed streams.
/// The ids appended since the last Settle() must be ascending among
/// themselves; Settle() merges them into the sorted prefix.
class IdList {
 public:
  const std::vector<std::int32_t>& ids() const { return ids_; }
  std::size_t size() const { return ids_.size(); }
  void Reserve(std::size_t n) { ids_.reserve(n); }
  void Append(std::int32_t id) { ids_.push_back(id); }

  /// Empties the list, handing its ids to the caller.
  std::vector<std::int32_t> Take() {
    sorted_ = 0;
    return std::exchange(ids_, {});
  }

  void Settle() {
    const auto mid = ids_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::inplace_merge(ids_.begin(), mid, ids_.end());
    sorted_ = ids_.size();
  }

 private:
  std::vector<std::int32_t> ids_;
  std::size_t sorted_ = 0;
};

Status Validate(const ShardedFarmConfig& config) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.num_titles < 1 ||
      config.num_titles > std::numeric_limits<std::int32_t>::max()) {
    return Status::InvalidArgument("num_titles must be in [1, 2^31)");
  }
  if (config.offered_streams < 0 ||
      config.offered_streams > std::numeric_limits<std::int32_t>::max()) {
    return Status::InvalidArgument("offered_streams must be in [0, 2^31)");
  }
  if (config.bit_rate <= 0) {
    return Status::InvalidArgument("bit_rate must be > 0");
  }
  if (config.duration <= 0) {
    return Status::InvalidArgument("duration must be > 0");
  }
  return Status::OK();
}

/// Fail/repair boundaries inside (0, duration), deduplicated.
std::vector<Seconds> EpochBoundaries(const ShardedFarmConfig& config) {
  std::vector<Seconds> cuts;
  for (const fault::FaultEvent& e : config.faults.events()) {
    if (e.device < 0 || e.device >= config.num_shards) continue;
    if (e.time > 0 && e.time < config.duration) cuts.push_back(e.time);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

/// The t = 0 admission wave: draws every offer's title, routes the
/// offers and returns the admitted ones in offer order (stream id =
/// index). No title's candidates cross a shard group, so each group's
/// offers route independently, in offer order, with exactly the
/// decisions of one serial pass. Groups are dealt round-robin onto at
/// most one lane per sweep thread; each lane scans the offers for its
/// own groups, and the lanes' tallies fold into the router after the
/// barrier.
std::vector<StreamRec> AdmissionWave(const ShardedFarmConfig& config,
                                     const Placement& placement,
                                     const workload::ZipfSampler& sampler,
                                     AdmissionRouter* router,
                                     exp::SweepRunner* runner) {
  PROF_SCOPE("farm.wave");
  // Until the compaction below, streams[i] is offer i.
  Rng rng(config.seed);
  std::vector<StreamRec> streams(
      static_cast<std::size_t>(config.offered_streams));
  for (StreamRec& rec : streams) {
    rec.title = static_cast<std::int32_t>(sampler.Sample(rng));
  }

  TitleGroups groups = GroupTitles(placement);
  const std::int32_t lanes = std::min(groups.count, runner->threads());
  std::vector<std::int32_t> lane_of_title = std::move(groups.of_title);
  for (std::int32_t& g : lane_of_title) g %= lanes;
  std::vector<RouteTally> tallies = runner->Map(
      lanes, [&](exp::TaskContext& ctx) -> RouteTally {
        const auto lane = static_cast<std::int32_t>(ctx.index());
        RouteTally tally;
        for (StreamRec& rec : streams) {
          if (lane_of_title[static_cast<std::size_t>(rec.title)] != lane) {
            continue;
          }
          rec.shard = router->RouteAmong(groups.candidates(rec.title),
                                         config.bit_rate, &tally);
        }
        return tally;
      });
  for (const RouteTally& tally : tallies) router->AddTally(tally);
  // Compacting in offer order keeps every stream id what a serial wave
  // assigns.
  std::erase_if(streams, [](const StreamRec& rec) { return rec.shard < 0; });
  return streams;
}

}  // namespace

Result<FarmRunReport> RunShardedFarm(const ShardedFarmConfig& config) {
  MEMSTREAM_RETURN_IF_ERROR(Validate(config));

  PlacementConfig pc;
  pc.num_shards = config.num_shards;
  pc.num_titles = config.num_titles;
  pc.replicas = config.replicas;
  pc.virtual_nodes = config.virtual_nodes;
  pc.zipf_exponent = config.zipf_exponent;
  pc.replication_budget = config.replication_budget;
  pc.seed = config.seed;
  auto placement = MakePlacement(config.policy, pc);
  MEMSTREAM_RETURN_IF_ERROR(placement.status());

  // One probe node for the admission model; each shard workspace keeps
  // its own node (tasks must not share mutable device state).
  auto probe = device::DiskDrive::Create(config.node_disk);
  MEMSTREAM_RETURN_IF_ERROR(probe.status());

  RouterConfig rc;
  rc.dram_budget_per_shard = config.dram_budget_per_shard;
  rc.node_rate = probe.value().parameters().outer_rate;
  rc.node_latency = model::DiskLatencyFn(probe.value());
  auto router = AdmissionRouter::Create(placement.value().get(), rc);
  MEMSTREAM_RETURN_IF_ERROR(router.status());
  // Every stream has the one rate and every node the one config, so all
  // shards share one Theorem-1 table. No shard can hold more streams
  // than were offered; past kMaxTabledStreams (2 MB of table) a shard
  // solves as before.
  MEMSTREAM_RETURN_IF_ERROR(router.value().ShareSizingTable(
      config.bit_rate,
      std::clamp<std::int64_t>(config.offered_streams, 1, kMaxTabledStreams)));

  FarmRunReport farm;
  farm.policy = placement.value()->name();
  farm.shards = config.num_shards;
  farm.titles = config.num_titles;
  farm.total_copies = placement.value()->total_copies();
  farm.offered = config.offered_streams;
  farm.duration = config.duration;
  farm.per_shard.resize(static_cast<std::size_t>(config.num_shards));
  for (std::int64_t s = 0; s < config.num_shards; ++s) {
    farm.per_shard[static_cast<std::size_t>(s)].shard =
        static_cast<std::int32_t>(s);
  }

  exp::SweepOptions so;
  so.threads = config.threads;
  so.base_seed = config.seed;
  exp::SweepRunner runner(so);

  // --- t = 0 admission wave -------------------------------------------
  auto sampler =
      workload::ZipfSampler::Create(config.num_titles, config.zipf_exponent);
  MEMSTREAM_RETURN_IF_ERROR(sampler.status());
  std::vector<StreamRec> streams =
      AdmissionWave(config, *placement.value(), sampler.value(),
                    &router.value(), &runner);
  // The wave is not part of the shard-epoch sweep the report describes.
  const exp::SweepStats wave_sweep = runner.stats();
  farm.admitted = static_cast<std::int64_t>(streams.size());
  farm.rejected = farm.offered - farm.admitted;

  // Residents of each shard and the shed streams, ids ascending. Fail
  // and repair events walk only these; each epoch's plan reads them.
  std::vector<IdList> members(static_cast<std::size_t>(config.num_shards));
  for (std::int64_t s = 0; s < config.num_shards; ++s) {
    members[static_cast<std::size_t>(s)].Reserve(static_cast<std::size_t>(
        router.value().admitted_on(static_cast<std::int32_t>(s))));
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    members[static_cast<std::size_t>(streams[i].shard)].Append(
        static_cast<std::int32_t>(i));
  }
  for (IdList& m : members) m.Settle();
  IdList shed;

  // Register the admitted streams with the farm journal under the
  // Theorem-1 envelope of their home shard's steady-state cycle.
  if (config.journal != nullptr) {
    std::vector<Seconds> shard_cycle(
        static_cast<std::size_t>(config.num_shards), 0.0);
    for (std::int64_t s = 0; s < config.num_shards; ++s) {
      const std::int64_t n = router.value().admitted_on(
          static_cast<std::int32_t>(s));
      if (n <= 0) continue;
      auto cycle = model::IoCycleLength(n, config.bit_rate,
                                        model::DiskProfile(probe.value(), n));
      if (cycle.ok()) shard_cycle[static_cast<std::size_t>(s)] = cycle.value();
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const Seconds t =
          shard_cycle[static_cast<std::size_t>(streams[i].shard)];
      config.journal->EnsureStream(static_cast<std::int64_t>(i),
                                   config.bit_rate,
                                   2 * config.bit_rate * t, 0.0);
    }
  }

  obs::Slo* slo_underflow = nullptr;
  obs::Slo* slo_slack = nullptr;
  obs::Slo* slo_availability = nullptr;
  if (config.slo != nullptr) {
    slo_underflow = config.slo->Add(obs::StandardUnderflowSlo());
    slo_slack = config.slo->Add(obs::StandardCycleSlackSlo());
    slo_availability = config.slo->Add(obs::StandardAvailabilitySlo());
  }

  // --- plan: the epochs between node-failure events -------------------
  // Routing and the fault events never read a shard-epoch's row, so every
  // epoch's events apply first and leave the plan of the run.
  std::vector<Seconds> starts{0.0};
  for (Seconds t : EpochBoundaries(config)) starts.push_back(t);
  std::vector<EpochPlan> plan(starts.size());
  std::vector<double> up_seconds(
      static_cast<std::size_t>(config.num_shards), 0.0);
  double served_stream_seconds = 0;
  double unserved_stream_seconds = 0;

  for (std::size_t epoch = 0; epoch < starts.size(); ++epoch) {
    EpochPlan& ep = plan[epoch];
    ep.start = starts[epoch];
    ep.end = epoch + 1 < starts.size() ? starts[epoch + 1] : config.duration;
    ep.length = ep.end - ep.start;
    const Seconds t0 = ep.start;

    // Apply this boundary's fault events (plan order).
    if (epoch > 0) {
      PROF_SCOPE("farm.fault_events");
      // The journal slot of stream `id`, -1 when not journaled.
      auto slot_of = [&](std::int32_t id) -> std::ptrdiff_t {
        return config.journal != nullptr ? config.journal->SlotOf(id) : -1;
      };
      for (const fault::FaultEvent& e : config.faults.events()) {
        if (e.time != t0 || e.device < 0 || e.device >= config.num_shards) {
          continue;
        }
        const std::int32_t s = static_cast<std::int32_t>(e.device);
        auto readmit = [&](std::int32_t id, const RouteDecision& d) {
          members[static_cast<std::size_t>(d.shard)].Append(id);
          ++farm.readmits;
          if (const std::ptrdiff_t slot = slot_of(id); slot >= 0) {
            ep.marks.push_back({static_cast<std::size_t>(slot), true});
          }
        };
        if (e.kind == fault::FaultKind::kMemsDeviceFail) {
          MEMSTREAM_RETURN_IF_ERROR(router.value().SetShardUp(s, false));
          for (const std::int32_t id :
               members[static_cast<std::size_t>(s)].Take()) {
            MEMSTREAM_RETURN_IF_ERROR(
                router.value().Release(s, config.bit_rate));
            ++farm.shed_actions;
            ++farm.per_shard[static_cast<std::size_t>(s)].shed;
            if (const std::ptrdiff_t slot = slot_of(id); slot >= 0) {
              ep.marks.push_back({static_cast<std::size_t>(slot), false});
            }
            // Fail over: the dead shard is skipped, so this lands on
            // the least-loaded surviving replica (if the title has one
            // with headroom).
            const RouteDecision d = router.value().Route(
                streams[static_cast<std::size_t>(id)].title, config.bit_rate);
            if (d.admitted) {
              ++farm.failovers;
              ++farm.per_shard[static_cast<std::size_t>(d.shard)]
                    .failed_over_in;
              readmit(id, d);
            } else {
              shed.Append(id);
            }
          }
        } else {  // repair
          MEMSTREAM_RETURN_IF_ERROR(router.value().SetShardUp(s, true));
          for (const std::int32_t id : shed.Take()) {
            const RouteDecision d = router.value().Route(
                streams[static_cast<std::size_t>(id)].title, config.bit_rate);
            if (d.admitted) {
              readmit(id, d);
            } else {
              shed.Append(id);
            }
          }
        }
        // The event walked its list in ascending id, so every append
        // was ascending; the next event at this instant reads them.
        for (IdList& m : members) m.Settle();
        shed.Settle();
      }
    }

    // Constant per-epoch stream sets, ids ascending per shard.
    ep.shed = static_cast<std::int64_t>(shed.size());
    ep.serving = static_cast<std::int64_t>(streams.size()) - ep.shed;
    served_stream_seconds += static_cast<double>(ep.serving) * ep.length;
    unserved_stream_seconds += static_cast<double>(ep.shed) * ep.length;
    ep.counts.assign(static_cast<std::size_t>(config.num_shards), 0);
    if (config.journal != nullptr) {
      ep.ids.resize(static_cast<std::size_t>(config.num_shards));
    }
    for (std::int64_t s = 0; s < config.num_shards; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (!router.value().shard_up(static_cast<std::int32_t>(s))) continue;
      up_seconds[si] += ep.length;
      const auto n = static_cast<std::int64_t>(members[si].size());
      if (n == 0) continue;
      ep.counts[si] = n;
      ++farm.shard_epochs;
      if (config.journal != nullptr) ep.ids[si] = members[si].ids();
    }
  }

  // --- one simulation per distinct resident count ---------------------
  // A row depends only on the resident count and the epoch length, so
  // each count runs once, to its longest epoch, and reports every epoch
  // length it occurs with on the way. Largest counts first, so the
  // longest tasks start early and the threads finish together.
  std::map<std::int64_t, std::vector<Seconds>, std::greater<>> lengths_of;
  for (const EpochPlan& ep : plan) {
    for (const std::int64_t n : ep.counts) {
      if (n > 0) lengths_of[n].push_back(ep.length);
    }
  }
  std::vector<std::int64_t> task_streams;
  std::vector<std::vector<Seconds>> task_lengths;
  std::unordered_map<std::int64_t, std::size_t> task_of_count;
  std::size_t most_lengths = 1;
  for (auto& [n, lengths] : lengths_of) {
    std::sort(lengths.begin(), lengths.end());
    lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
    most_lengths = std::max(most_lengths, lengths.size());
    task_of_count.emplace(n, task_streams.size());
    task_streams.push_back(n);
    task_lengths.push_back(std::move(lengths));
  }
  // One workspace per sweep thread that the tasks can keep busy, each
  // prepared for the run's largest task.
  const auto num_tasks = static_cast<std::int64_t>(task_streams.size());
  const bool want_per_stream = config.journal != nullptr;
  ShardWorkspacePool workspaces(
      config,
      static_cast<int>(std::min<std::int64_t>(runner.threads(), num_tasks)),
      task_streams.empty() ? 0 : task_streams.front(), most_lengths,
      want_per_stream);
  const std::vector<std::vector<ShardEpoch>> rows = runner.Map(
      num_tasks, [&](exp::TaskContext& ctx) -> std::vector<ShardEpoch> {
        const auto t = static_cast<std::size_t>(ctx.index());
        const std::vector<Seconds>& lengths = task_lengths[t];
        const ShardWorkspacePool::Lease ws = workspaces.Checkout();
        const std::span<const ShardEpoch> out = ws->RunEpochs(
            {.streams = task_streams[t],
             .length = lengths.back(),
             .per_stream = want_per_stream,
             .shorter = std::span(lengths).first(lengths.size() - 1)});
        ctx.AddEvents(out.back().ios);
        return {out.begin(), out.end()};
      });

  // --- merge, epoch by epoch, on the orchestrator thread --------------
  // Each epoch feeds its journal marks, then its rows in shard order
  // (farm totals and the journal/SLO feeds), then its availability; the
  // same order as a sweep per epoch, so every output is deterministic.
  const ShardEpoch kIdle;
  for (const EpochPlan& ep : plan) {
    for (const auto& [slot, readmitted] : ep.marks) {
      if (readmitted) {
        config.journal->MarkReadmitted(slot, ep.start);
      } else {
        config.journal->MarkShed(slot, ep.start);
      }
    }
    const Seconds t1 = ep.end;
    for (std::int64_t s = 0; s < config.num_shards; ++s) {
      const std::int64_t n = ep.counts[static_cast<std::size_t>(s)];
      const ShardEpoch* found = &kIdle;
      if (n > 0) {
        const std::size_t t = task_of_count.at(n);
        const std::vector<Seconds>& lengths = task_lengths[t];
        found = &rows[t][static_cast<std::size_t>(
            std::lower_bound(lengths.begin(), lengths.end(), ep.length) -
            lengths.begin())];
      }
      const ShardEpoch& row = *found;
      if (!row.error.empty()) {
        return Status::Internal("shard " + std::to_string(s) +
                                " epoch failed: " + row.error);
      }
      if (!row.ran) continue;
      FarmShardReport& sr = farm.per_shard[static_cast<std::size_t>(s)];
      sr.ios_completed += row.ios;
      sr.cycle_overruns += row.overruns;
      sr.underflow_events += row.underflows;
      sr.qos_violations += row.violations;
      sr.peak_dram_demand = std::max(sr.peak_dram_demand, row.peak_dram);
      sr.utilization += row.busy;  // normalized by up_seconds at the end
      farm.ios_completed += row.ios;
      farm.cycle_overruns += row.overruns;
      farm.underflow_events += row.underflows;
      farm.qos_violations += row.violations;

      if (slo_underflow != nullptr) {
        const std::int64_t stream_cycles = row.streams * row.cycles;
        slo_underflow->Record(t1, stream_cycles - row.underflows,
                              row.underflows);
      }
      if (slo_slack != nullptr) {
        slo_slack->Record(t1, row.cycles - row.overruns, row.overruns);
      }
      if (config.journal != nullptr) {
        // Row stream j is the shard's j-th resident.
        const std::vector<std::int32_t>& ids =
            ep.ids[static_cast<std::size_t>(s)];
        for (const StreamEpoch& se : row.per_stream) {
          const std::ptrdiff_t slot =
              config.journal->SlotOf(ids[static_cast<std::size_t>(se.id)]);
          if (slot < 0) continue;
          config.journal->RecordIoSummary(static_cast<std::size_t>(slot), t1,
                                          se.ios, se.bytes, se.peak);
          if (se.underflows > 0) {
            config.journal->RecordUnderflows(static_cast<std::size_t>(slot),
                                             t1, se.underflows);
          }
        }
      }
    }
    if (slo_availability != nullptr) {
      slo_availability->Record(
          t1, std::llround(static_cast<double>(ep.serving) * ep.length),
          std::llround(static_cast<double>(ep.shed) * ep.length));
    }
  }

  // --- final accounting -----------------------------------------------
  for (std::int64_t s = 0; s < config.num_shards; ++s) {
    FarmShardReport& sr = farm.per_shard[static_cast<std::size_t>(s)];
    sr.streams = router.value().admitted_on(static_cast<std::int32_t>(s));
    const double up = up_seconds[static_cast<std::size_t>(s)];
    sr.utilization = up > 0 ? sr.utilization / up : 0.0;
    farm.peak_dram_per_shard =
        std::max(farm.peak_dram_per_shard, sr.peak_dram_demand);
    farm.mean_utilization +=
        sr.utilization / static_cast<double>(config.num_shards);
  }
  const double total_ss = served_stream_seconds + unserved_stream_seconds;
  farm.availability = total_ss > 0 ? served_stream_seconds / total_ss : 1.0;
  farm.sweep = runner.stats();
  farm.sweep.tasks -= wave_sweep.tasks;
  farm.sweep.events -= wave_sweep.events;
  farm.sweep.wall_seconds -= wave_sweep.wall_seconds;

  if (config.journal != nullptr) config.journal->Finalize(config.duration);
  if (config.metrics != nullptr) {
    config.metrics->gauge("farm.shards")->Set(
        static_cast<double>(farm.shards));
    config.metrics->gauge("farm.admitted")->Set(
        static_cast<double>(farm.admitted));
    config.metrics->gauge("farm.rejected")->Set(
        static_cast<double>(farm.rejected));
    config.metrics->gauge("farm.failovers")->Set(
        static_cast<double>(farm.failovers));
    config.metrics->gauge("farm.shed")->Set(
        static_cast<double>(farm.shed_actions));
    config.metrics->gauge("farm.readmits")->Set(
        static_cast<double>(farm.readmits));
    config.metrics->gauge("farm.availability")->Set(farm.availability);
    config.metrics->gauge("farm.peak_dram_per_shard")->Set(
        static_cast<double>(farm.peak_dram_per_shard));
    config.metrics->gauge("farm.qos_violations")->Set(
        static_cast<double>(farm.qos_violations));
    // Surface the attached SLOs and journal summary as gauges so the
    // farm's metrics block carries slo.* / stream.* alongside farm.*.
    if (config.slo != nullptr) config.slo->PublishGauges(config.metrics);
    if (config.journal != nullptr) {
      config.journal->PublishSummary(config.metrics);
    }
  }
  return farm;
}

obs::FarmBlock BuildFarmBlock(const FarmRunReport& report) {
  obs::FarmBlock block;
  block.policy = report.policy;
  block.shards = report.shards;
  block.titles = report.titles;
  block.total_copies = report.total_copies;
  block.offered = report.offered;
  block.admitted = report.admitted;
  block.rejected = report.rejected;
  block.failovers = report.failovers;
  block.shed = report.shed_actions;
  block.readmits = report.readmits;
  block.availability = report.availability;
  block.peak_dram_per_shard = report.peak_dram_per_shard;
  block.mean_utilization = report.mean_utilization;
  block.per_shard.reserve(report.per_shard.size());
  for (const FarmShardReport& s : report.per_shard) {
    obs::FarmShardEntry e;
    e.shard = s.shard;
    e.streams = s.streams;
    e.ios = s.ios_completed;
    e.underflow_events = s.underflow_events;
    e.cycle_overruns = s.cycle_overruns;
    e.qos_violations = s.qos_violations;
    e.failed_over_in = s.failed_over_in;
    e.shed = s.shed;
    e.peak_dram_bytes = s.peak_dram_demand;
    e.utilization = s.utilization;
    block.per_shard.push_back(e);
  }
  return block;
}

}  // namespace memstream::farm
