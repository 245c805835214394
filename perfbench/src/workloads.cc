#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <queue>
#include <sstream>

#include "common/random.h"
#include "device/device_catalog.h"
#include "exp/sweep_runner.h"
#include "farm/placement.h"
#include "farm/router.h"
#include "farm/sharded_farm.h"
#include "fault/fault_plan.h"
#include "model/incremental.h"
#include "model/profiles.h"
#include "model/stream.h"
#include "obs/run_report.h"
#include "server/admission.h"
#include "server/media_server.h"
#include "workload/popularity.h"

namespace memstream::perfbench {
namespace {

// ---------------------------------------------------------------------
// Shared helpers

/// FNV-1a over 64-bit words, for digests of long output sequences.
class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(double value) { Add(model::DoubleBits(value)); }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Calls fn(node) for every node of the profile tree.
void WalkProfile(const std::vector<prof::ProfileNode>& nodes,
                 const std::function<void(const prof::ProfileNode&)>& fn) {
  for (const prof::ProfileNode& n : nodes) {
    fn(n);
    WalkProfile(n.children, fn);
  }
}

struct ProfileSums {
  double exclusive_s = 0;
  double inclusive_s = 0;
  std::int64_t count = 0;
};

/// Totals over the profile regions whose name satisfies `match`.
ProfileSums SumRegions(const prof::ProfileSnapshot& profile,
                       const std::function<bool(const std::string&)>& match) {
  ProfileSums sums;
  WalkProfile(profile.roots, [&](const prof::ProfileNode& n) {
    if (!match(n.name)) return;
    sums.exclusive_s += static_cast<double>(n.exclusive_ns) * 1e-9;
    sums.inclusive_s += static_cast<double>(n.inclusive_ns) * 1e-9;
    sums.count += n.count;
  });
  return sums;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The PROF_SCOPE-derived metrics every workload reports: the cycle
/// engine's, the event loop's, the auditor's and the sweep pool's self
/// time, per repetition.
void AddProfileMetrics(const prof::ProfileSnapshot& profile, double reps,
                       LayerMetrics* out) {
  const ProfileSums server = SumRegions(
      profile, [](const std::string& n) { return StartsWith(n, "server."); });
  const ProfileSums cycles = SumRegions(profile, [](const std::string& n) {
    return StartsWith(n, "server.") && n.find("cycle") != std::string::npos;
  });
  const ProfileSums dispatch = SumRegions(
      profile, [](const std::string& n) { return n == "sim.event.dispatch"; });
  const ProfileSums pop = SumRegions(
      profile, [](const std::string& n) { return n == "sim.queue.pop"; });
  const ProfileSums audit = SumRegions(
      profile, [](const std::string& n) { return StartsWith(n, "obs.qos."); });
  const ProfileSums tasks = SumRegions(
      profile, [](const std::string& n) { return n == "exp.sweep.task"; });
  (*out)["server.cycles"] = static_cast<double>(cycles.count) / reps;
  (*out)["server.cycle_self_s"] = server.exclusive_s / reps;
  (*out)["sim.events"] = static_cast<double>(dispatch.count) / reps;
  (*out)["sim.dispatch_self_s"] = dispatch.exclusive_s / reps;
  (*out)["sim.queue_pop_self_s"] = pop.exclusive_s / reps;
  (*out)["obs.audit_self_s"] = audit.exclusive_s / reps;
  (*out)["exp.task_busy_s"] = tasks.inclusive_s / reps;
}

/// Share of the pool's capacity over `map_s` that no task used.
double IdleShare(double map_s, double busy_s, int threads) {
  const double capacity = map_s * threads;
  return capacity > 0 ? std::max(0.0, 1.0 - busy_s / capacity) : 0.0;
}

// ---------------------------------------------------------------------
// sim_paper / sim_faults

/// Simulated seconds per server config: ten minutes of every title,
/// which keeps a traced sim_faults repetition near two host seconds.
constexpr Seconds kSimHorizon = 600;
/// Records each config's TraceLog keeps in sim_faults.
constexpr std::size_t kTraceCapacity = 4096;
/// Device failures per MEMS device per simulated second in sim_faults.
constexpr double kDeviceFailRate = 0.03;

device::DiskParameters UniformDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  return p;
}

/// Span name of the server a config builds, by mode key.
const char* RunSpanName(const server::MediaServerConfig& c) {
  switch (c.mode) {
    case server::ServerMode::kDirect:
      return "server.direct.run";
    case server::ServerMode::kMemsBuffer:
      return "server.buffer.run";
    case server::ServerMode::kMemsCache:
      return c.cache_policy == model::CachePolicy::kStriped
                 ? "server.cache_striped.run"
                 : "server.cache_replicated.run";
  }
  return "server.unknown.run";
}

constexpr const char* kModes[] = {"direct", "buffer", "cache_striped",
                                  "cache_replicated"};

/// `plan` keeping one device outage at a time: a failure that starts
/// while another device is down is dropped with its repair. Both devices
/// down at once (k' = 0) is outside Theorem 4's degraded k' = k - 1
/// regime, and the striped bank's retained streams then overrun their
/// DRAM sizing after the repair.
fault::FaultPlan SingleOutages(const fault::FaultPlan& plan) {
  std::vector<fault::FaultEvent> kept;
  std::vector<std::int64_t> dropped;  ///< devices whose repair to drop
  std::int64_t down = -1;             ///< device out of service, or -1
  for (const fault::FaultEvent& e : plan.events()) {
    if (e.kind == fault::FaultKind::kMemsDeviceFail) {
      if (down >= 0) {
        dropped.push_back(e.device);
        continue;
      }
      down = e.device;
    } else if (e.kind == fault::FaultKind::kMemsDeviceRepair) {
      auto it = std::find(dropped.begin(), dropped.end(), e.device);
      if (it != dropped.end()) {
        dropped.erase(it);
        continue;
      }
      if (e.device == down) down = -1;
    }
    kept.push_back(e);
  }
  return fault::FaultPlan::FromScript(std::move(kept));
}

struct SimCase {
  std::string name;
  server::MediaServerConfig config;
};

/// The seven sim_validation server configs.
std::vector<SimCase> PaperCases(std::uint64_t seed) {
  std::vector<SimCase> cases;
  server::MediaServerConfig fig4;
  fig4.mode = server::ServerMode::kMemsBuffer;
  fig4.disk = UniformDisk();
  fig4.k = 1;
  fig4.num_streams = 10;
  fig4.bit_rate = 1 * kMBps;
  fig4.sim_duration = kSimHorizon;
  fig4.seed = seed;
  cases.push_back({"fig4_buffer_k1_n10_dvd", fig4});

  server::MediaServerConfig fig5 = fig4;
  fig5.k = 3;
  fig5.num_streams = 45;
  cases.push_back({"fig5_buffer_k3_n45_dvd", fig5});

  server::MediaServerConfig direct = fig4;
  direct.mode = server::ServerMode::kDirect;
  direct.num_streams = 60;
  cases.push_back({"direct_n60_dvd", direct});

  server::MediaServerConfig buffered = direct;
  buffered.mode = server::ServerMode::kMemsBuffer;
  buffered.k = 2;
  cases.push_back({"buffer_k2_n60_dvd", buffered});

  server::MediaServerConfig cached = direct;
  cached.mode = server::ServerMode::kMemsCache;
  cached.k = 2;
  cached.cache_policy = model::CachePolicy::kReplicated;
  cached.cached_fraction_of_streams = 0.5;
  cases.push_back({"cache_repl_k2_n60_dvd", cached});

  server::MediaServerConfig striped = cached;
  striped.cache_policy = model::CachePolicy::kStriped;
  cases.push_back({"cache_striped_k2_n60_dvd", striped});

  server::MediaServerConfig hdtv = direct;
  hdtv.num_streams = 20;
  hdtv.bit_rate = 10 * kMBps;
  cases.push_back({"direct_n20_hdtv", hdtv});
  return cases;
}

/// What one server config's run produced.
struct CaseRun {
  std::string error;
  server::MediaServerResult result;
  std::int64_t trace_records = 0;
  std::int64_t trace_dropped = 0;
};

class SimWorkload : public Workload {
 public:
  explicit SimWorkload(bool faults) : faults_(faults) {}

  Status Setup(std::uint64_t seed, int threads, SpanRecorder* spans) override {
    cases_.clear();
    runner_.reset();
    cases_ = PaperCases(seed);
    if (faults_) {
      // ablation_faults' k = 2 MEMS cache under seeded device
      // fail/repair plans.
      for (const bool striped : {true, false}) {
        fault::FaultPlanConfig pc;
        pc.horizon = kSimHorizon;
        pc.num_devices = 2;
        pc.device_fail_rate = kDeviceFailRate;
        pc.repair_after = 4;
        Result<fault::FaultPlan> plan = [&] {
          ScopedSpan span(spans, "fault.plan_generate");
          return fault::FaultPlan::Generate(
              pc, exp::TaskSeed(seed, striped ? 1 : 2));
        }();
        MEMSTREAM_RETURN_IF_ERROR(plan.status());
        server::MediaServerConfig c;
        c.mode = server::ServerMode::kMemsCache;
        c.cache_policy = striped ? model::CachePolicy::kStriped
                                 : model::CachePolicy::kReplicated;
        c.k = 2;
        c.num_streams = 30;
        c.cached_fraction_of_streams = 0.5;
        c.bit_rate = 8 * kMBps;
        c.sim_duration = kSimHorizon;
        c.seed = seed;
        c.fault_plan = SingleOutages(plan.value());
        c.fault_refill_delay = 1.0;
        cases_.push_back({striped ? "faults_cache_striped_k2_n30"
                                  : "faults_cache_replicated_k2_n30",
                          c});
      }
    }
    // Device calibration: every config's drive and MEMS part must build.
    for (const SimCase& c : cases_) {
      ScopedSpan span(spans, "device.create");
      MEMSTREAM_RETURN_IF_ERROR(
          device::DiskDrive::Create(c.config.disk).status());
      if (c.config.mode != server::ServerMode::kDirect) {
        MEMSTREAM_RETURN_IF_ERROR(
            device::MemsDevice::Create(c.config.mems).status());
      }
    }
    exp::SweepOptions so;
    so.threads = threads;
    runner_ = std::make_unique<exp::SweepRunner>(so);
    return Status::OK();
  }

  Rep Run(SpanRecorder* spans) override {
    std::vector<CaseRun> runs;
    {
      ScopedSpan map_span(spans, "exp.map");
      const int parent = map_span.id();
      runs = runner_->Map(
          static_cast<std::int64_t>(cases_.size()),
          [this, spans, parent](exp::TaskContext& ctx) {
            const SimCase& c = cases_[static_cast<std::size_t>(ctx.index())];
            ScopedSpan span(spans, RunSpanName(c.config), parent);
            server::MediaServerConfig config = c.config;
            sim::TraceLog trace(kTraceCapacity);
            std::ostringstream warnings;  // burst-drop notes
            if (faults_) config.trace = &trace;
            config.fault_warn_stream = &warnings;
            CaseRun out;
            auto result = server::RunMediaServer(config);
            if (!result.ok()) {
              out.error = c.name + ": " + result.status().ToString();
              return out;
            }
            out.result = std::move(result).value();
            out.trace_records =
                static_cast<std::int64_t>(trace.records().size());
            out.trace_dropped = trace.dropped_records();
            return out;
          });
    }

    Rep rep;
    double disk_busy = 0, mems_busy = 0;
    std::int64_t mems_cases = 0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const SimCase& c = cases_[i];
      const CaseRun& run = runs[i];
      if (!run.error.empty()) {
        rep.error = run.error;
        continue;
      }
      const server::MediaServerResult& r = run.result;
      const std::int64_t cycles =
          r.auditor != nullptr ? r.auditor->disk_cycles_audited() +
                                     r.auditor->mems_cycles_audited()
                               : 0;
      auto& item = rep.outputs.Item(c.name);
      item.emplace_back("ios_completed", r.ios_completed);
      item.emplace_back("cycles", cycles);
      item.emplace_back("underflow_events", r.qos.underflow_events);
      item.emplace_back("cycle_overruns", r.cycle_overruns);
      item.emplace_back("qos_violations", r.qos.violations);
      item.emplace_back("analytic_dram", r.analytic_dram_total);
      item.emplace_back("sim_peak_dram", r.sim_peak_dram);

      rep.attempted += r.ios_completed;
      rep.failed += r.qos.underflow_events + r.qos.violations;
      rep.sim_ios += r.ios_completed;

      const std::string mode = RunSpanName(c.config);
      rep.counters[mode.substr(0, mode.size() - 4) + ".ios"] +=
          static_cast<double>(r.ios_completed);
      rep.counters["server.cycle_overruns"] +=
          static_cast<double>(r.cycle_overruns);
      rep.counters["obs.audited_cycles"] += static_cast<double>(cycles);
      rep.counters["obs.trace_records"] +=
          static_cast<double>(run.trace_records);
      rep.counters["obs.trace_dropped"] +=
          static_cast<double>(run.trace_dropped);
      disk_busy += r.disk_utilization;
      if (c.config.mode != server::ServerMode::kDirect) {
        mems_busy += r.mems_utilization;
        ++mems_cases;
      }
      if (r.faults != nullptr) {
        const obs::FaultsBlock& block = r.faults->block();
        item.emplace_back("fault_events", block.events);
        item.emplace_back("replans", block.replans);
        item.emplace_back("sheds", block.sheds);
        rep.counters["fault.events"] += static_cast<double>(block.events);
        rep.counters["fault.replans"] += static_cast<double>(block.replans);
        rep.counters["fault.sheds"] += static_cast<double>(block.sheds);
      }
    }
    rep.counters["device.disk_busy_share"] =
        disk_busy / static_cast<double>(cases_.size());
    rep.counters["device.mems_busy_share"] =
        mems_cases > 0 ? mems_busy / static_cast<double>(mems_cases) : 0;
    return rep;
  }

  void AddLayerMetrics(const SpanRecorder& spans,
                       const prof::ProfileSnapshot& profile, double reps,
                       LayerMetrics* out) const override {
    AddProfileMetrics(profile, reps, out);
    for (const char* m : kModes) {
      const std::string key = std::string("server.") + m;
      const double run_s = spans.TotalSeconds(key + ".run") / reps;
      const double ios = (*out)[key + ".ios"];
      (*out)[key + ".run_s"] = run_s;
      (*out)[key + ".ns_per_io"] = ios > 0 ? run_s * 1e9 / ios : 0;
    }
    (*out)["device.create_s"] = spans.TotalSeconds("device.create");
    (*out)["fault.plan_generate_s"] =
        spans.TotalSeconds("fault.plan_generate");
    const double map_s = spans.TotalSeconds("exp.map") / reps;
    (*out)["exp.map_s"] = map_s;
    (*out)["exp.idle_share"] =
        IdleShare(map_s, (*out)["exp.task_busy_s"], runner_->threads());
  }

 private:
  const bool faults_;
  std::vector<SimCase> cases_;
  std::unique_ptr<exp::SweepRunner> runner_;
};

// ---------------------------------------------------------------------
// farm_zipf

class FarmWorkload : public Workload {
 public:
  Status Setup(std::uint64_t seed, int threads, SpanRecorder* spans) override {
    placement_.reset();
    sampler_.reset();
    probe_.reset();

    // ablation_millionfarm's full farm: 128 nodes, each a 5-way striped
    // FutureDisk array collapsed to one fat uniform-rate disk.
    device::DiskParameters node = device::FutureDisk2007();
    node.name = "FutureNode5x";
    node.outer_rate *= 5;
    node.inner_rate = node.outer_rate;
    node.capacity *= 5;

    farm::ShardedFarmConfig& c = config_;
    c = farm::ShardedFarmConfig{};
    c.num_shards = 128;
    c.num_titles = 20000;
    c.zipf_exponent = 0.8;
    c.policy = farm::PlacementPolicy::kPopularityAware;
    c.replicas = 4;
    c.replication_budget = 0.10;
    c.virtual_nodes = 64;
    c.offered_streams = 1080000;
    c.bit_rate = 100 * kKBps;
    c.node_disk = node;
    c.dram_budget_per_shard = 48 * kGB;
    c.duration = 90;
    c.seed = seed;
    c.threads = threads;
    c.audit = true;
    // Four nodes fail at 0.4 T and come back at 0.75 T.
    std::vector<fault::FaultEvent> events;
    for (std::int64_t d = 0; d < 4; ++d) {
      fault::FaultEvent fail;
      fail.time = 0.4 * c.duration;
      fail.kind = fault::FaultKind::kMemsDeviceFail;
      fail.device = d;
      events.push_back(fail);
      fault::FaultEvent repair = fail;
      repair.time = 0.75 * c.duration;
      repair.kind = fault::FaultKind::kMemsDeviceRepair;
      events.push_back(repair);
    }
    c.faults = fault::FaultPlan::FromScript(std::move(events));

    {
      ScopedSpan span(spans, "device.create");
      auto probe = device::DiskDrive::Create(node);
      MEMSTREAM_RETURN_IF_ERROR(probe.status());
      probe_.emplace(std::move(probe).value());
    }
    {
      // The same placement RunShardedFarm builds; the traced run's
      // replayed wave routes through it.
      ScopedSpan span(spans, "farm.placement_build");
      farm::PlacementConfig pc;
      pc.num_shards = c.num_shards;
      pc.num_titles = c.num_titles;
      pc.replicas = c.replicas;
      pc.virtual_nodes = c.virtual_nodes;
      pc.zipf_exponent = c.zipf_exponent;
      pc.replication_budget = c.replication_budget;
      pc.seed = c.seed;
      auto placement = farm::MakePlacement(c.policy, pc);
      MEMSTREAM_RETURN_IF_ERROR(placement.status());
      placement_ = std::move(placement).value();
    }
    {
      ScopedSpan span(spans, "workload.zipf_create");
      auto sampler = workload::ZipfSampler::Create(c.num_titles,
                                                   c.zipf_exponent);
      MEMSTREAM_RETURN_IF_ERROR(sampler.status());
      sampler_.emplace(std::move(sampler).value());
    }
    return Status::OK();
  }

  Rep Run(SpanRecorder* spans) override {
    Rep rep;
    obs::MetricsRegistry metrics;
    farm::ShardedFarmConfig cfg = config_;
    cfg.metrics = &metrics;
    Result<farm::FarmRunReport> result = [&] {
      ScopedSpan span(spans, "farm.run");
      return farm::RunShardedFarm(cfg);
    }();
    if (!result.ok()) {
      rep.error = result.status().ToString();
      return rep;
    }
    const farm::FarmRunReport& r = result.value();

    std::string json;
    {
      ScopedSpan span(spans, "obs.report_build");
      obs::FarmBlock block = farm::BuildFarmBlock(r);
      obs::RunReport report;
      report.title = std::string("farm_zipf ") + r.policy;
      report.AddConfig("policy", r.policy);
      report.AddConfig("shards", std::to_string(r.shards));
      report.AddConfig("offered", std::to_string(r.offered));
      report.AddSimulated("admitted", static_cast<double>(r.admitted));
      report.AddSimulated("availability", r.availability);
      report.AddSimulated("peak_dram_per_shard", r.peak_dram_per_shard);
      report.farm = &block;
      report.metrics = &metrics;
      ScopedSpan json_span(spans, "obs.report_json");
      json = report.ToJson();
    }

    Digest shards;
    for (const farm::FarmShardReport& s : r.per_shard) {
      shards.Add(static_cast<std::uint64_t>(s.streams));
      shards.Add(static_cast<std::uint64_t>(s.ios_completed));
      shards.Add(static_cast<std::uint64_t>(s.shed));
      shards.Add(static_cast<std::uint64_t>(s.failed_over_in));
      shards.Add(s.peak_dram_demand);
      shards.Add(s.utilization);
    }
    auto& item = rep.outputs.Item("farm");
    item.emplace_back("offered", r.offered);
    item.emplace_back("admitted", r.admitted);
    item.emplace_back("rejected", r.rejected);
    item.emplace_back("failovers", r.failovers);
    item.emplace_back("shed", r.shed_actions);
    item.emplace_back("readmits", r.readmits);
    item.emplace_back("ios_completed", r.ios_completed);
    item.emplace_back("underflow_events", r.underflow_events);
    item.emplace_back("qos_violations", r.qos_violations);
    item.emplace_back("availability", r.availability);
    item.emplace_back("peak_dram_per_shard", r.peak_dram_per_shard);
    item.emplace_back("per_shard_digest", shards.Hex());

    if (r.admitted + r.rejected != r.offered) {
      rep.error = "admitted + rejected != offered";
    }
    rep.attempted = r.ios_completed;
    rep.failed = r.underflow_events + r.qos_violations;
    rep.sim_ios = r.ios_completed;
    rep.farm_admitted = r.admitted;
    rep.counters["farm.parallel_s"] = r.sweep.wall_seconds;
    rep.counters["farm.failovers"] = static_cast<double>(r.failovers);
    rep.counters["farm.readmits"] = static_cast<double>(r.readmits);
    rep.counters["server.cycle_overruns"] =
        static_cast<double>(r.cycle_overruns);
    rep.counters["device.disk_busy_share"] = r.mean_utilization;
    rep.counters["obs.report_bytes"] = static_cast<double>(json.size());
    threads_ = r.sweep.threads;
    return rep;
  }

  /// Replays the t = 0 admission wave from outside the farm: the same
  /// seeded Zipf draws routed through a fresh AdmissionRouter over the
  /// same placement. It must admit exactly what the farm admitted.
  std::string TracedExtras(SpanRecorder* spans,
                           const Rep& reference) override {
    const farm::ShardedFarmConfig& c = config_;
    std::vector<std::int64_t> titles(
        static_cast<std::size_t>(c.offered_streams));
    {
      ScopedSpan span(spans, "workload.zipf_sample");
      Rng rng(c.seed);
      for (std::int64_t& t : titles) t = sampler_->Sample(rng);
    }
    farm::RouterConfig rc;
    rc.dram_budget_per_shard = c.dram_budget_per_shard;
    rc.node_rate = probe_->parameters().outer_rate;
    rc.node_latency = model::DiskLatencyFn(*probe_);
    auto router = farm::AdmissionRouter::Create(placement_.get(), rc);
    if (!router.ok()) return router.status().ToString();
    std::int64_t admitted = 0;
    {
      ScopedSpan span(spans, "farm.route");
      for (const std::int64_t t : titles) {
        if (router.value().Route(t, c.bit_rate).admitted) ++admitted;
      }
    }
    model::SolveMemoStats memo;
    for (std::int32_t s = 0; s < router.value().num_shards(); ++s) {
      const model::SolveMemoStats& m =
          router.value().controller(s).memo_stats();
      memo.hits += m.hits;
      memo.misses += m.misses;
    }
    extras_["workload.zipf_samples"] = static_cast<double>(titles.size());
    extras_["farm.route_calls"] = static_cast<double>(titles.size());
    extras_["model.memo_hits"] = static_cast<double>(memo.hits);
    extras_["model.memo_misses"] = static_cast<double>(memo.misses);

    if (reference.outputs.items.empty()) return "no untraced farm outputs";
    std::int64_t want = -1;
    for (const auto& [key, value] : reference.outputs.items.front().second) {
      if (key == "admitted") want = std::get<std::int64_t>(value);
    }
    if (admitted != want) {
      return "replayed wave admitted " + std::to_string(admitted) +
             ", farm admitted " + std::to_string(want);
    }
    return {};
  }

  void AddLayerMetrics(const SpanRecorder& spans,
                       const prof::ProfileSnapshot& profile, double reps,
                       LayerMetrics* out) const override {
    AddProfileMetrics(profile, reps, out);
    for (const auto& [k, v] : extras_) (*out)[k] = v;
    const double hits = (*out)["model.memo_hits"];
    const double misses = (*out)["model.memo_misses"];
    (*out)["model.memo_hit_share"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    (*out)["workload.setup_s"] = spans.TotalSeconds("workload.zipf_create");
    (*out)["workload.zipf_sample_s"] =
        spans.TotalSeconds("workload.zipf_sample");
    (*out)["device.create_s"] = spans.TotalSeconds("device.create");
    (*out)["farm.placement_build_s"] =
        spans.TotalSeconds("farm.placement_build");
    const double run_s = spans.TotalSeconds("farm.run") / reps;
    const double parallel_s = (*out)["farm.parallel_s"];
    (*out)["farm.run_s"] = run_s;
    (*out)["farm.serial_s"] = std::max(0.0, run_s - parallel_s);
    (*out)["farm.route_s"] = spans.TotalSeconds("farm.route");
    (*out)["obs.report_build_s"] =
        spans.SelfSeconds("obs.report_build") / reps;
    (*out)["obs.report_json_s"] = spans.TotalSeconds("obs.report_json") / reps;
    (*out)["exp.map_s"] = parallel_s;
    (*out)["exp.idle_share"] =
        IdleShare(parallel_s, (*out)["exp.task_busy_s"], threads_);
  }

 private:
  farm::ShardedFarmConfig config_;
  std::unique_ptr<farm::Placement> placement_;
  std::optional<workload::ZipfSampler> sampler_;
  std::optional<device::DiskDrive> probe_;
  LayerMetrics extras_;
  int threads_ = 1;
};

// ---------------------------------------------------------------------
// admit_churn

/// Arrivals in one replayed trace.
constexpr std::int64_t kChurnArrivals = 1000000;
/// Mean concurrent streams offered (Poisson arrivals at 1/s, holds of
/// this mean in seconds).
constexpr double kChurnOfferedLoad = 200;
constexpr std::int64_t kChurnTitles = 2000;
/// DRAM budget of the node: about half the offers are rejected once
/// the load reaches steady state.
constexpr Bytes kChurnDramBudget = 1 * kMB;

class ChurnWorkload : public Workload {
 public:
  Status Setup(std::uint64_t seed, int /*threads*/,
               SpanRecorder* spans) override {
    rate_.clear();
    arrive_.clear();
    hold_.clear();
    {
      // One MEMS-buffered node: FutureDisk behind a k = 2 G3 bank.
      ScopedSpan span(spans, "device.create");
      auto disk = device::DiskDrive::Create(device::FutureDisk2007());
      MEMSTREAM_RETURN_IF_ERROR(disk.status());
      auto mems = device::MemsDevice::Create(device::MemsG3());
      MEMSTREAM_RETURN_IF_ERROR(mems.status());
      config_ = server::AdmissionConfig{};
      config_.dram_budget = kChurnDramBudget;
      config_.disk_rate = disk.value().parameters().outer_rate;
      config_.disk_latency = model::DiskLatencyFn(disk.value());
      config_.buffer_k = 2;
      config_.mems = model::MemsProfileMaxLatency(mems.value());
    }
    ScopedSpan span(spans, "workload.trace_gen");
    auto sampler = workload::ZipfSampler::Create(kChurnTitles, 0.8);
    MEMSTREAM_RETURN_IF_ERROR(sampler.status());
    // Each title is one Table-1 media class, dealt round-robin by
    // popularity rank so every seed offers the same class mix.
    const std::vector<model::StreamClass> classes =
        model::PaperStreamClasses();
    std::vector<BytesPerSecond> title_rate(kChurnTitles);
    for (std::size_t t = 0; t < title_rate.size(); ++t) {
      title_rate[t] = classes[t % classes.size()].bit_rate;
    }
    Rng rng(seed);
    rate_.reserve(kChurnArrivals);
    arrive_.reserve(kChurnArrivals);
    hold_.reserve(kChurnArrivals);
    Seconds t = 0;
    for (std::int64_t i = 0; i < kChurnArrivals; ++i) {
      t += rng.NextExponential(1.0);
      arrive_.push_back(t);
      rate_.push_back(title_rate[static_cast<std::size_t>(
          sampler.value().Sample(rng))]);
      hold_.push_back(rng.NextExponential(1.0 / kChurnOfferedLoad));
    }
    return Status::OK();
  }

  Rep Run(SpanRecorder* spans) override {
    Rep rep;
    auto created = server::AdmissionController::Create(config_);
    if (!created.ok()) {
      rep.error = created.status().ToString();
      return rep;
    }
    server::AdmissionController& ctrl = created.value();
    using Departure = std::pair<Seconds, BytesPerSecond>;
    std::priority_queue<Departure, std::vector<Departure>,
                        std::greater<Departure>>
        live;
    const bool timed = spans != nullptr;
    std::int64_t admit_ns = 0, release_ns = 0;
    std::int64_t admitted = 0, rejected = 0, releases = 0, errors = 0;
    std::int64_t over_budget = 0, peak = 0;
    Digest decisions;

    ScopedSpan span(spans, "server.admission.replay");
    auto release = [&](BytesPerSecond rate) {
      const std::int64_t t0 = timed ? NowNs() : 0;
      const Status st = ctrl.Release(rate);
      if (timed) release_ns += NowNs() - t0;
      ++releases;
      if (!st.ok()) ++errors;
    };
    for (std::size_t i = 0; i < rate_.size(); ++i) {
      while (!live.empty() && live.top().first <= arrive_[i]) {
        release(live.top().second);
        live.pop();
      }
      const std::int64_t t0 = timed ? NowNs() : 0;
      const server::AdmissionDecision d = ctrl.TryAdmit(rate_[i]);
      if (timed) admit_ns += NowNs() - t0;
      decisions.Add(static_cast<std::uint64_t>(d.admitted));
      decisions.Add(d.dram_required);
      if (d.admitted) {
        ++admitted;
        if (d.dram_required > config_.dram_budget) ++over_budget;
        live.emplace(arrive_[i] + hold_[i], rate_[i]);
        peak = std::max(peak, ctrl.admitted_count());
      } else {
        ++rejected;
      }
    }
    while (!live.empty()) {
      release(live.top().second);
      live.pop();
    }

    auto& item = rep.outputs.Item("trace");
    item.emplace_back("arrivals", static_cast<std::int64_t>(rate_.size()));
    item.emplace_back("admitted", admitted);
    item.emplace_back("rejected", rejected);
    item.emplace_back("releases", releases);
    item.emplace_back("peak_admitted", peak);
    item.emplace_back("decision_digest", decisions.Hex());

    const std::int64_t calls = admitted + rejected + releases;
    rep.attempted = calls;
    rep.failed = errors + over_budget;
    rep.admit_decisions = calls;
    if (errors > 0) rep.error = std::to_string(errors) + " Release errors";
    if (over_budget > 0) {
      rep.error = std::to_string(over_budget) + " admissions over budget";
    }
    if (ctrl.admitted_count() != 0) rep.error = "streams left after drain";

    const model::SolveMemoStats& memo = ctrl.memo_stats();
    rep.counters["model.memo_hits"] = static_cast<double>(memo.hits);
    rep.counters["model.memo_misses"] = static_cast<double>(memo.misses);
    rep.counters["server.admission.admit_calls"] =
        static_cast<double>(admitted + rejected);
    rep.counters["server.admission.release_calls"] =
        static_cast<double>(releases);
    rep.counters["server.admission.admitted_share"] =
        static_cast<double>(admitted) /
        static_cast<double>(admitted + rejected);
    if (timed) {
      spans->AddTally("server.admission.try_admit", span.id(),
                      admitted + rejected, admit_ns);
      spans->AddTally("server.admission.release", span.id(), releases,
                      release_ns);
    }
    return rep;
  }

  void AddLayerMetrics(const SpanRecorder& spans,
                       const prof::ProfileSnapshot& profile, double reps,
                       LayerMetrics* out) const override {
    AddProfileMetrics(profile, reps, out);
    const double hits = (*out)["model.memo_hits"];
    const double misses = (*out)["model.memo_misses"];
    (*out)["model.memo_hit_share"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    (*out)["server.admission.admit_s"] =
        static_cast<double>(spans.tally("server.admission.try_admit").ns) *
        1e-9 / reps;
    (*out)["server.admission.release_s"] =
        static_cast<double>(spans.tally("server.admission.release").ns) *
        1e-9 / reps;
    (*out)["device.create_s"] = spans.TotalSeconds("device.create");
    (*out)["workload.setup_s"] = spans.TotalSeconds("workload.trace_gen");
  }

 private:
  server::AdmissionConfig config_;
  std::vector<BytesPerSecond> rate_;
  std::vector<Seconds> arrive_;
  std::vector<Seconds> hold_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sim_paper") return std::make_unique<SimWorkload>(false);
  if (name == "sim_faults") return std::make_unique<SimWorkload>(true);
  if (name == "farm_zipf") return std::make_unique<FarmWorkload>();
  if (name == "admit_churn") return std::make_unique<ChurnWorkload>();
  return nullptr;
}

}  // namespace memstream::perfbench
