// memstream-perf: the perf-trajectory harness. Runs the sweep benches
// and the google-benchmark microbenchmarks K times each, records
// median-of-K wall clock / events-per-second (plus p50/p99 and
// allocs/op where measured) into bench_results/BENCH_trajectory.json,
// and optionally gates against committed baselines:
//
//   memstream-perf --bench-dir build/bench --repeats 3
//   memstream-perf --check --tolerance 1.5
//   memstream-perf --update-baseline
//   memstream-perf --profile-overhead fig9_cache_throughput
//
// MEMSTREAM_SMOKE is honored uniformly: when set (or with --smoke) the
// child benches trim themselves exactly as the ctest bench-smoke label
// does, and records/baselines are keyed smoke=true so full and smoke
// histories never mix. Exit status: 0 ok, 1 usage, 2 bench failures,
// 3 baseline regression.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "exp/perf_trajectory.h"
#include "obs/json_parser.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"

#ifndef MEMSTREAM_SOURCE_DIR
#define MEMSTREAM_SOURCE_DIR "."
#endif

namespace {

namespace fs = std::filesystem;
using memstream::exp::PerfCheck;
using memstream::exp::PerfRecord;

/// The sweep benches the harness drives (every bench that RecordSweep()s
/// into BENCH_sweeps.json). Kept in build order; --benches overrides.
const char* const kSweepBenches[] = {
    "fig4_fig5_schedules",  "fig6_dram_requirement",
    "fig7_cost_reduction",  "fig8_total_cost_reduction",
    "fig9_cache_throughput", "fig10_cache_size_sweep",
    "sim_validation",       "ablation_hybrid",
    "ablation_sensitivity", "ablation_generations",
    "ablation_placement",   "ablation_edf",
    "ablation_scaleout",    "ablation_faults",
    "ablation_millionfarm",
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --bench-dir DIR     bench binaries (default: <argv0>/../bench)\n"
      "  --workdir DIR       where bench_results/ lands (default: .)\n"
      "  --out FILE          trajectory file (default:\n"
      "                      <workdir>/bench_results/BENCH_trajectory.json)\n"
      "  --repeats K         runs per bench (default: 3; 1 under smoke\n"
      "                      unless --check/--update-baseline)\n"
      "  --benches a,b,c     subset of sweep benches to run\n"
      "  --skip-micro        skip the google-benchmark microbenchmarks\n"
      "  --smoke             force MEMSTREAM_SMOKE=1 in the children\n"
      "  --check             compare against baselines; exit 3 on regression\n"
      "  --baseline-dir DIR  committed baselines (default: bench/baselines\n"
      "                      of the source tree this binary was built from)\n"
      "  --tolerance X       allowed slowdown factor for --check (default 1.5)\n"
      "  --update-baseline   rewrite the baseline file from this run\n"
      "  --profile-overhead BENCH\n"
      "                      measure PROF_SCOPE overhead on one bench\n"
      "  --http PORT         serve /metrics progress while running\n",
      argv0);
  return 1;
}

struct Options {
  std::string bench_dir;
  std::string workdir = ".";
  std::string out;
  std::string baseline_dir = MEMSTREAM_SOURCE_DIR "/bench/baselines";
  std::vector<std::string> benches{std::begin(kSweepBenches),
                                   std::end(kSweepBenches)};
  std::string overhead_bench;
  int repeats = 0;  ///< 0 = default (3 full, 1 smoke)
  double tolerance = 1.5;
  int http_port = -1;
  bool skip_micro = false;
  bool smoke = false;
  bool check = false;
  bool update_baseline = false;
};

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string ShellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

/// Runs `binary args` from inside `workdir`, appending its output to the
/// harness log. Returns the wall-clock seconds, or < 0 on failure.
double RunBench(const Options& opt, const std::string& binary,
                const std::string& args, const std::string& env_prefix) {
  const std::string log =
      (fs::path(opt.workdir) / "bench_results" / "perf_harness.log").string();
  std::string cmd = "cd " + ShellQuote(opt.workdir) + " && " + env_prefix +
                    ShellQuote(binary);
  if (!args.empty()) cmd += " " + args;
  cmd += " >> " + ShellQuote(log) + " 2>&1";
  const auto start = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return rc == 0 ? wall : -1.0;
}

/// events_per_sec for `bench` from <workdir>/bench_results/
/// BENCH_sweeps.json; 0 when absent (analytic-only bench or parse miss).
double SweepEventsPerSec(const Options& opt, const std::string& bench) {
  const fs::path path =
      fs::path(opt.workdir) / "bench_results" / "BENCH_sweeps.json";
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;
  std::ostringstream content;
  content << in.rdbuf();
  bool ok = false;
  const auto doc = memstream::obs::ParseJson(content.str(), &ok);
  if (!ok || !doc.is_array()) return 0;
  for (const auto& v : doc.array) {
    if (v.is_object() && v.Str("bench") == bench) {
      return v.Num("events_per_sec", 0);
    }
  }
  return 0;
}

PerfRecord MakeRecord(const Options& opt, const std::string& bench,
                      const std::string& kind, int repeats,
                      std::vector<double> walls, double events_per_sec,
                      double allocs_per_event) {
  PerfRecord r;
  r.bench = bench;
  r.kind = kind;
  r.smoke = opt.smoke;
  r.unix_time = static_cast<double>(std::time(nullptr));
  r.repeats = repeats;
  r.wall_seconds = memstream::exp::Median(walls);
  r.wall_p50 = memstream::exp::Percentile(walls, 0.5);
  r.wall_p99 = memstream::exp::Percentile(walls, 0.99);
  r.events_per_sec = events_per_sec;
  r.allocs_per_event = allocs_per_event;
  return r;
}

double TimeUnitSeconds(const std::string& unit) {
  if (unit == "s") return 1;
  if (unit == "ms") return 1e-3;
  if (unit == "us") return 1e-6;
  return 1e-9;  // ns, the google-benchmark default
}

/// Parses a --benchmark_out JSON document into per-benchmark records.
std::vector<PerfRecord> ParseMicroOut(const Options& opt,
                                      const std::string& text, int repeats) {
  std::vector<PerfRecord> out;
  bool ok = false;
  const auto doc = memstream::obs::ParseJson(text, &ok);
  if (!ok || !doc.is_object()) return out;
  const auto* benches = doc.Find("benchmarks");
  if (benches == nullptr || !benches->is_array()) return out;

  struct Agg {
    std::vector<double> walls;
    std::vector<double> items_per_sec;
    std::vector<double> allocs;
  };
  std::map<std::string, Agg> by_name;
  std::vector<std::string> order;
  for (const auto& b : benches->array) {
    if (!b.is_object()) continue;
    // Keep raw iterations; skip the _mean/_median/_stddev aggregates a
    // repetitions>1 run also emits.
    const std::string run_type = b.Str("run_type");
    if (!run_type.empty() && run_type != "iteration") continue;
    const std::string name = b.Str("name");
    if (name.empty()) continue;
    auto [it, inserted] = by_name.try_emplace(name);
    if (inserted) order.push_back(name);
    Agg& agg = it->second;
    agg.walls.push_back(b.Num("real_time", 0) *
                        TimeUnitSeconds(b.Str("time_unit")));
    if (const auto* ips = b.Find("items_per_second"); ips != nullptr) {
      agg.items_per_sec.push_back(ips->number);
    }
    if (const auto* allocs = b.Find("allocs_per_op"); allocs != nullptr) {
      agg.allocs.push_back(allocs->number);
    }
  }
  for (const auto& name : order) {
    Agg& agg = by_name[name];
    out.push_back(MakeRecord(
        opt, name, "micro", repeats, agg.walls,
        memstream::exp::Median(agg.items_per_sec),
        agg.allocs.empty() ? -1 : memstream::exp::Median(agg.allocs)));
  }
  return out;
}

/// Live-progress registry served over /metrics while the harness runs.
struct Progress {
  std::mutex mu;
  memstream::obs::MetricsRegistry registry;

  void Update(int done, int total, double last_wall) {
    std::lock_guard<std::mutex> lock(mu);
    registry.gauge("perf.benches_total")->Set(total);
    registry.gauge("perf.benches_done")->Set(done);
    registry.gauge("perf.last_bench_wall_seconds")->Set(last_wall);
  }
  std::string Render() {
    std::lock_guard<std::mutex> lock(mu);
    return registry.ToPrometheusText();
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* into) {
      if (++i >= argc) return false;
      *into = argv[i];
      return true;
    };
    std::string val;
    if (arg == "--bench-dir" && next(&val)) {
      opt.bench_dir = val;
    } else if (arg == "--workdir" && next(&val)) {
      opt.workdir = val;
    } else if (arg == "--out" && next(&val)) {
      opt.out = val;
    } else if (arg == "--baseline-dir" && next(&val)) {
      opt.baseline_dir = val;
    } else if (arg == "--benches" && next(&val)) {
      opt.benches = SplitCommas(val);
    } else if (arg == "--repeats" && next(&val)) {
      opt.repeats = std::atoi(val.c_str());
    } else if (arg == "--tolerance" && next(&val)) {
      opt.tolerance = std::atof(val.c_str());
    } else if (arg == "--profile-overhead" && next(&val)) {
      opt.overhead_bench = val;
    } else if (arg == "--http" && next(&val)) {
      opt.http_port = std::atoi(val.c_str());
    } else if (arg == "--skip-micro") {
      opt.skip_micro = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--update-baseline") {
      opt.update_baseline = true;
    } else if (arg == "-h" || arg == "--help") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (std::getenv("MEMSTREAM_SMOKE") != nullptr) opt.smoke = true;
  // Smoke sweeps finish in milliseconds, so a single sample's events/sec
  // is scheduler noise; comparisons (--check, --update-baseline) always
  // get a median-of-K even in smoke mode.
  if (opt.repeats <= 0) {
    const bool comparing = opt.check || opt.update_baseline;
    opt.repeats = (opt.smoke && !comparing) ? 1 : 3;
  }
  if (opt.bench_dir.empty()) {
    opt.bench_dir = (fs::path(argv[0]).parent_path() / ".." / "bench")
                        .lexically_normal()
                        .string();
    if (opt.bench_dir.empty()) opt.bench_dir.push_back('.');
  }
  {
    // Bench binaries run after `cd workdir`, so the bench dir must not
    // depend on the invocation directory.
    std::error_code abs_ec;
    const fs::path abs = fs::absolute(opt.bench_dir, abs_ec);
    if (!abs_ec) opt.bench_dir = abs.lexically_normal().string();
  }
  if (opt.out.empty()) {
    opt.out = (fs::path(opt.workdir) / "bench_results" /
               "BENCH_trajectory.json")
                  .string();
  }
  std::error_code ec;
  fs::create_directories(fs::path(opt.workdir) / "bench_results", ec);

  const std::string env_prefix = opt.smoke ? "MEMSTREAM_SMOKE=1 " : "";

  // --profile-overhead: one bench, plain vs MEMSTREAM_PROFILE=1, report
  // the median-wall overhead of the enabled profiler. Informational.
  if (!opt.overhead_bench.empty()) {
    const std::string bin =
        (fs::path(opt.bench_dir) / opt.overhead_bench).string();
    std::vector<double> plain, profiled;
    for (int k = 0; k < opt.repeats; ++k) {
      const double w0 = RunBench(opt, bin, "", env_prefix +
                                 "MEMSTREAM_PROFILE=0 ");
      const double w1 = RunBench(opt, bin, "", env_prefix +
                                 "MEMSTREAM_PROFILE=1 ");
      if (w0 < 0 || w1 < 0) {
        std::fprintf(stderr, "error: %s failed; see the harness log\n",
                     bin.c_str());
        return 2;
      }
      plain.push_back(w0);
      profiled.push_back(w1);
    }
    const double base = memstream::exp::Median(plain);
    const double with = memstream::exp::Median(profiled);
    const double pct = base > 0 ? (with / base - 1.0) * 100.0 : 0;
    std::printf(
        "profile-overhead %s: plain %.3f s, profiled %.3f s -> %+.2f%%\n",
        opt.overhead_bench.c_str(), base, with, pct);
    return 0;
  }

  memstream::obs::MetricsHttpOptions hopt;
  if (opt.http_port >= 0) hopt.port = opt.http_port;
  memstream::obs::MetricsHttpServer http(hopt);
  Progress progress;
  if (opt.http_port >= 0) {
    http.SetMetricsProvider([&progress] { return progress.Render(); });
    const auto st = http.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "warning: /metrics server: %s\n",
                   st.message().c_str());
    } else {
      std::fprintf(stderr, "serving /metrics on port %d\n", http.port());
    }
  }

  const int total = static_cast<int>(opt.benches.size()) +
                    (opt.skip_micro ? 0 : 1);
  int done = 0;
  int failures = 0;
  std::vector<PerfRecord> records;
  progress.Update(done, total, 0);

  for (const auto& bench : opt.benches) {
    const std::string bin = (fs::path(opt.bench_dir) / bench).string();
    if (!fs::exists(bin)) {
      std::fprintf(stderr, "error: bench binary not found: %s\n",
                   bin.c_str());
      ++failures;
      continue;
    }
    std::vector<double> walls;
    std::vector<double> eps;
    for (int k = 0; k < opt.repeats; ++k) {
      const double wall = RunBench(opt, bin, "", env_prefix);
      if (wall < 0) break;
      walls.push_back(wall);
      eps.push_back(SweepEventsPerSec(opt, bench));
    }
    if (static_cast<int>(walls.size()) < opt.repeats) {
      std::fprintf(stderr, "error: %s failed; see the harness log\n",
                   bench.c_str());
      ++failures;
      continue;
    }
    records.push_back(MakeRecord(opt, bench, "sweep", opt.repeats, walls,
                                 memstream::exp::Median(eps), -1));
    const PerfRecord& r = records.back();
    std::printf("%-28s wall %.3f s  events/s %.0f  (K=%d)\n", bench.c_str(),
                r.wall_seconds, r.events_per_sec, opt.repeats);
    progress.Update(++done, total, r.wall_seconds);
  }

  if (!opt.skip_micro) {
    const std::string bin =
        (fs::path(opt.bench_dir) / "micro_benchmarks").string();
    const fs::path micro_out =
        fs::path(opt.workdir) / "bench_results" / "micro_out.json";
    if (!fs::exists(bin)) {
      std::fprintf(stderr, "error: bench binary not found: %s\n",
                   bin.c_str());
      ++failures;
    } else {
      const std::string args =
          "--benchmark_out=" + ShellQuote(micro_out.string()) +
          " --benchmark_out_format=json --benchmark_repetitions=" +
          std::to_string(opt.repeats);
      const double wall = RunBench(opt, bin, args, env_prefix);
      if (wall < 0) {
        std::fprintf(stderr,
                     "error: micro_benchmarks failed; see the harness log\n");
        ++failures;
      } else {
        std::ifstream in(micro_out, std::ios::binary);
        std::ostringstream content;
        content << in.rdbuf();
        const auto micro = ParseMicroOut(opt, content.str(), opt.repeats);
        for (const auto& r : micro) {
          std::printf("%-44s %.0f ns/op", r.bench.c_str(),
                      r.wall_seconds * 1e9);
          if (r.allocs_per_event >= 0) {
            std::printf("  allocs/op %.2f", r.allocs_per_event);
          }
          std::printf("\n");
        }
        records.insert(records.end(), micro.begin(), micro.end());
        progress.Update(++done, total, wall);
      }
    }
  }

  if (records.empty()) {
    std::fprintf(stderr, "error: no bench produced a record\n");
    return 2;
  }

  const auto append =
      memstream::exp::AppendPerfRecords(opt.out, records);
  if (!append.ok()) {
    std::fprintf(stderr, "error: %s\n", append.message().c_str());
    return 2;
  }
  std::printf("appended %zu record(s) to %s\n", records.size(),
              opt.out.c_str());

  const std::string baseline_file =
      (fs::path(opt.baseline_dir) / (opt.smoke ? "smoke.json" : "full.json"))
          .string();
  if (opt.update_baseline) {
    fs::create_directories(opt.baseline_dir, ec);
    const auto write =
        memstream::exp::WritePerfRecords(baseline_file, records);
    if (!write.ok()) {
      std::fprintf(stderr, "error: %s\n", write.message().c_str());
      return 2;
    }
    std::printf("baseline updated: %s\n", baseline_file.c_str());
  }

  int exit_code = failures > 0 ? 2 : 0;
  if (opt.check) {
    auto baseline = memstream::exp::LoadPerfRecords(baseline_file);
    if (!baseline.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   baseline.status().message().c_str());
      return 2;
    }
    if (baseline.value().empty()) {
      std::fprintf(stderr, "error: no baseline at %s (run with "
                   "--update-baseline first)\n", baseline_file.c_str());
      return 2;
    }
    const auto checks = memstream::exp::CheckAgainstBaseline(
        records, baseline.value(), opt.tolerance);
    int regressions = 0;
    for (const auto& c : checks) {
      if (!c.found_baseline) continue;
      if (!c.ok) ++regressions;
      std::printf("%s %-44s %s\n", c.ok ? "  ok  " : "REGRESS",
                  c.bench.c_str(), c.detail.c_str());
    }
    if (regressions > 0) {
      std::fprintf(stderr, "%d perf regression(s) beyond x%.2f\n",
                   regressions, opt.tolerance);
      exit_code = 3;
    } else {
      std::printf("perf check passed (tolerance x%.2f)\n", opt.tolerance);
    }
  }
  http.Stop();
  return exit_code;
}
