// memstream_bench: runs one benchmark workload in-process and prints one
// JSON document of raw measurements as the last line of stdout.
// perfbench/run.py builds this binary, checks its outputs against the
// expected values and turns the measurements into the benchmark's
// metrics.
//
//   memstream_bench --workload sim_paper --seed 1 --seconds 10 --trace 0
//                   [--threads 2] [--spans PATH]
//
// The run sets up several times (set-up time is reported per set-up),
// then repeats the workload untraced for --seconds. With --trace 1 the
// untraced phase gets half of --seconds and a traced phase the other
// half: one traced set-up, traced repetitions with the PROF_SCOPE
// profiler on, and any traced-only replay; spans go to --spans.

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/profiler.h"
#include "obs/json_writer.h"
#include "spans.h"
#include "workloads.h"

namespace memstream::perfbench {
namespace {

/// Set-ups per run: at least kMinSetups, more while under kSetupBudgetS.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 2000;
constexpr double kSetupBudgetS = 1.0;
/// Timed repetitions per phase, however short the phase (one when
/// --seconds is 0, for output checks and recording).
constexpr int kMinReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 2;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--threads") {
      args->threads = std::atoi(value.c_str());
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->threads >= 1;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct TimedRep {
  Rep rep;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Repeats the workload for `budget_s` seconds.
std::vector<TimedRep> RunReps(Workload& w, SpanRecorder* spans,
                              double budget_s) {
  std::vector<TimedRep> reps;
  const int min_reps = budget_s > 0 ? kMinReps : 1;
  const std::int64_t start = NowNs();
  while (static_cast<int>(reps.size()) < min_reps ||
         SecondsSince(start) < budget_s) {
    TimedRep t;
    const double cpu0 = CpuSeconds();
    const std::int64_t t0 = NowNs();
    t.rep = w.Run(spans);
    t.wall_s = SecondsSince(t0);
    t.cpu_s = CpuSeconds() - cpu0;
    reps.push_back(std::move(t));
  }
  return reps;
}

void WriteValue(obs::JsonWriter& w, const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    w.Int(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    w.Number(*d);
  } else {
    w.String(std::get<std::string>(v));
  }
}

void WriteReps(obs::JsonWriter& w, const std::vector<TimedRep>& reps) {
  w.BeginArray();
  for (const TimedRep& t : reps) {
    w.BeginObject();
    w.Key("wall_s");
    w.Number(t.wall_s);
    w.Key("cpu_s");
    w.Number(t.cpu_s);
    w.Key("attempted");
    w.Int(t.rep.attempted);
    w.Key("failed");
    w.Int(t.rep.failed);
    w.Key("sim_ios");
    w.Int(t.rep.sim_ios);
    w.Key("farm_admitted");
    w.Int(t.rep.farm_admitted);
    w.Key("admit_decisions");
    w.Int(t.rep.admit_decisions);
    w.Key("error");
    w.String(t.rep.error);
    w.Key("outputs");
    w.BeginObject();
    for (const auto& [item, fields] : t.rep.outputs.items) {
      w.Key(item);
      w.BeginObject();
      for (const auto& [key, value] : fields) {
        w.Key(key);
        WriteValue(w, value);
      }
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: memstream_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--threads T] [--spans PATH]\n";
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }

  // Bounded TraceLogs drop records by design; keep their warnings out.
  SetLogLevel(LogLevel::kError);

  std::vector<double> setup_s;
  const std::int64_t setup_start = NowNs();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (SecondsSince(setup_start) < kSetupBudgetS &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    const std::int64_t t0 = NowNs();
    const Status st = w->Setup(args.seed, args.threads, nullptr);
    setup_s.push_back(SecondsSince(t0));
    if (!st.ok()) {
      std::cerr << "set-up failed: " << st.ToString() << "\n";
      return 1;
    }
  }

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<TimedRep> reps = RunReps(*w, nullptr, budget);

  std::vector<TimedRep> traced;
  LayerMetrics layers;
  std::string extras_error;
  if (args.trace) {
    SpanRecorder spans(args.workload);
    prof::Profiler& profiler = prof::Profiler::Global();
    profiler.Reset();
    profiler.Enable();
    {
      ScopedSpan span(&spans, "bench.setup");
      const Status st = w->Setup(args.seed, args.threads, &spans);
      if (!st.ok()) {
        std::cerr << "traced set-up failed: " << st.ToString() << "\n";
        return 1;
      }
    }
    traced = RunReps(*w, &spans, budget);
    profiler.Disable();
    const prof::ProfileSnapshot profile = profiler.Snapshot();
    extras_error = w->TracedExtras(&spans, reps.front().rep);

    for (const TimedRep& t : traced) {
      for (const auto& [key, value] : t.rep.counters) {
        layers[key] += value / static_cast<double>(traced.size());
      }
    }
    w->AddLayerMetrics(spans, profile, static_cast<double>(traced.size()),
                       &layers);
    if (!args.spans_path.empty() && !spans.WriteJson(args.spans_path)) {
      std::cerr << "could not write " << args.spans_path << "\n";
      return 1;
    }
  }

  obs::JsonWriter out;
  out.BeginObject();
  out.Key("workload");
  out.String(args.workload);
  out.Key("seed");
  out.Int(static_cast<std::int64_t>(args.seed));
  out.Key("threads");
  out.Int(args.threads);
  out.Key("setup_s");
  out.BeginArray();
  for (const double s : setup_s) out.Number(s);
  out.EndArray();
  out.Key("peak_rss_mb");
  out.Number(PeakRssMb());
  out.Key("reps");
  WriteReps(out, reps);
  out.Key("traced_reps");
  WriteReps(out, traced);
  out.Key("layers");
  out.BeginObject();
  for (const auto& [key, value] : layers) {
    out.Key(key);
    out.Number(value);
  }
  out.EndObject();
  out.Key("extras_error");
  out.String(extras_error);
  out.EndObject();
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace
}  // namespace memstream::perfbench

int main(int argc, char** argv) {
  return memstream::perfbench::Main(argc, argv);
}
