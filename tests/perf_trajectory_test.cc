// The perf-trajectory record store behind tools/memstream-perf:
// percentile math, JSON round-trips, append-with-run-stamping, baseline
// regression checks, and the report aggregator's handling of
// BENCH_trajectory.json inputs.

#include "exp/perf_trajectory.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report_merge.h"

namespace memstream {
namespace {

using exp::CheckAgainstBaseline;
using exp::Median;
using exp::Percentile;
using exp::PerfCheck;
using exp::PerfRecord;

PerfRecord MakeRecord(const std::string& bench, double wall, double eps) {
  PerfRecord r;
  r.bench = bench;
  r.kind = "sweep";
  r.smoke = true;
  r.repeats = 3;
  r.wall_seconds = wall;
  r.wall_p50 = wall;
  r.wall_p99 = wall;
  r.events_per_sec = eps;
  return r;
}

/// A self-deleting temp file path under the test's working directory.
class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_("perf_test_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(PercentileTest, InterpolatesBetweenSamples) {
  const std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
  // Out-of-range quantiles clamp instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(Percentile(v, 2.0), 4);
  EXPECT_DOUBLE_EQ(Percentile(v, -1.0), 1);
}

TEST(PerfRecordTest, JsonRoundTripPreservesFields) {
  PerfRecord r = MakeRecord("fig9_cache_throughput", 0.25, 1.5e6);
  r.run = 3;
  r.unix_time = 1754600000;
  r.allocs_per_event = 0.5;
  auto parsed = exp::ParsePerfRecords("[" + exp::PerfRecordJson(r) + "]");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed.value().size(), 1u);
  const PerfRecord& back = parsed.value()[0];
  EXPECT_EQ(back.schema_version, exp::kPerfSchemaVersion);
  EXPECT_EQ(back.bench, "fig9_cache_throughput");
  EXPECT_EQ(back.kind, "sweep");
  EXPECT_TRUE(back.smoke);
  EXPECT_EQ(back.run, 3);
  EXPECT_EQ(back.repeats, 3);
  EXPECT_DOUBLE_EQ(back.wall_seconds, 0.25);
  EXPECT_DOUBLE_EQ(back.events_per_sec, 1.5e6);
  EXPECT_DOUBLE_EQ(back.allocs_per_event, 0.5);
}

TEST(PerfRecordTest, RejectsNewerSchemaAndNamelessRecords) {
  PerfRecord r = MakeRecord("b", 1, 0);
  r.schema_version = exp::kPerfSchemaVersion + 1;
  EXPECT_FALSE(
      exp::ParsePerfRecords("[" + exp::PerfRecordJson(r) + "]").ok());
  EXPECT_FALSE(exp::ParsePerfRecords("[{\"kind\":\"sweep\"}]").ok());
  EXPECT_FALSE(exp::ParsePerfRecords("{\"bench\":\"x\"}").ok());
  EXPECT_FALSE(exp::ParsePerfRecords("not json").ok());
}

TEST(PerfRecordTest, AppendStampsMonotonicRunNumbers) {
  TempFile file("trajectory.json");
  ASSERT_TRUE(
      exp::AppendPerfRecords(file.path(), {MakeRecord("a", 1, 100)}).ok());
  ASSERT_TRUE(exp::AppendPerfRecords(
                  file.path(), {MakeRecord("a", 2, 90), MakeRecord("b", 3, 80)})
                  .ok());
  auto loaded = exp::LoadPerfRecords(file.path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value()[0].run, 1);
  EXPECT_EQ(loaded.value()[1].run, 2);  // both records of the second
  EXPECT_EQ(loaded.value()[2].run, 2);  // append share one run number
}

TEST(PerfRecordTest, LoadOfMissingFileIsEmptyNotError) {
  auto loaded = exp::LoadPerfRecords("does_not_exist_trajectory.json");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(BaselineCheckTest, PassesWithinToleranceAndFlagsRegressions) {
  const std::vector<PerfRecord> baseline = {MakeRecord("a", 1.0, 1000)};
  // 1000 -> 900 events/s is a x1.11 slowdown: inside x1.5, outside x1.05.
  const std::vector<PerfRecord> current = {MakeRecord("a", 1.0, 900)};
  auto ok = CheckAgainstBaseline(current, baseline, 1.5);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(ok[0].found_baseline);
  EXPECT_TRUE(ok[0].ok);
  EXPECT_EQ(ok[0].metric, "events_per_sec");
  EXPECT_NEAR(ok[0].ratio, 1000.0 / 900.0, 1e-9);

  auto regress = CheckAgainstBaseline(current, baseline, 1.05);
  ASSERT_EQ(regress.size(), 1u);
  EXPECT_FALSE(regress[0].ok);
  EXPECT_NE(regress[0].detail.find("events_per_sec"), std::string::npos);
}

TEST(BaselineCheckTest, FallsBackToWallClockAndUsesLatestBaseline) {
  // No events/s on either side -> wall-seconds ratio. Two baseline
  // records for the same key: the later one (file order) wins.
  std::vector<PerfRecord> baseline = {MakeRecord("micro", 4.0, 0),
                                      MakeRecord("micro", 1.0, 0)};
  const std::vector<PerfRecord> current = {MakeRecord("micro", 1.2, 0)};
  auto checks = CheckAgainstBaseline(current, baseline, 1.5);
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_TRUE(checks[0].found_baseline);
  EXPECT_EQ(checks[0].metric, "wall_seconds");
  EXPECT_NEAR(checks[0].ratio, 1.2, 1e-9);  // vs 1.0, not vs 4.0
  EXPECT_TRUE(checks[0].ok);
}

TEST(BaselineCheckTest, MissingKeyOrSmokeMismatchReportsNoBaseline) {
  const std::vector<PerfRecord> baseline = {MakeRecord("a", 1.0, 1000)};
  PerfRecord full_mode = MakeRecord("a", 1.0, 1000);
  full_mode.smoke = false;  // same bench, different mode -> different key
  auto checks =
      CheckAgainstBaseline({MakeRecord("zzz", 1, 1), full_mode}, baseline, 2);
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_FALSE(checks[0].found_baseline);
  EXPECT_TRUE(checks[0].ok);  // not a regression; callers gate on found_baseline
  EXPECT_EQ(checks[0].detail, "no baseline");
  EXPECT_FALSE(checks[1].found_baseline);
}

TEST(ReportMergeTest, ClassifiesAndRendersPerfTrajectory) {
  PerfRecord r1 = MakeRecord("fig9_cache_throughput", 0.2, 1.0e6);
  r1.run = 1;
  PerfRecord r2 = MakeRecord("fig9_cache_throughput", 0.19, 1.1e6);
  r2.run = 2;
  const std::string json = exp::PerfRecordsJson({r1, r2});

  // Trajectory arrays also carry a "bench" key; classification must
  // test for "schema_version" before the bench-sweeps shape.
  EXPECT_EQ(obs::ClassifyReportInput(json),
            obs::ReportInputKind::kPerfTrajectory);

  obs::ReportBundle bundle;
  ASSERT_TRUE(
      obs::AddReportInput("BENCH_trajectory.json", json, &bundle).ok());
  ASSERT_EQ(bundle.perf.size(), 2u);
  EXPECT_EQ(bundle.perf[0].bench, "fig9_cache_throughput");
  EXPECT_EQ(bundle.perf[1].run, 2);

  const std::string md = obs::RenderMarkdownReport(bundle, "t");
  EXPECT_NE(md.find("## Perf trajectory"), std::string::npos) << md;
  EXPECT_NE(md.find("fig9_cache_throughput"), std::string::npos);
  const std::string html = obs::RenderHtmlDashboard(bundle, "t");
  EXPECT_NE(html.find("Perf trajectory"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
}

TEST(PerfCliTest, CheckFindsCommittedBaselinesFromAnyWorkingDirectory) {
  // The default --baseline-dir is the source tree's bench/baselines, not
  // a path relative to wherever the harness is started.
  namespace fs = std::filesystem;
  const fs::path work =
      fs::temp_directory_path() /
      ("memstream_perf_cli_" + std::to_string(::getpid()));
  fs::create_directories(work);
  const fs::path out = work / "out.txt";
  const std::string cmd =
      "cd '" + work.string() + "' && " + MEMSTREAM_PERF_BIN +
      " --check --smoke --skip-micro --repeats 1 --tolerance 1000"
      " --benches fig7_cost_reduction --bench-dir " MEMSTREAM_BENCH_DIR
      " --workdir '" + work.string() + "' > '" + out.string() + "' 2>&1";
  const int rc = std::system(cmd.c_str());
  std::ifstream in(out);
  std::stringstream text;
  text << in.rdbuf();
  ASSERT_TRUE(WIFEXITED(rc)) << text.str();
  EXPECT_EQ(WEXITSTATUS(rc), 0) << text.str();
  EXPECT_EQ(text.str().find("no baseline"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("perf check passed"), std::string::npos)
      << text.str();
  fs::remove_all(work);
}

}  // namespace
}  // namespace memstream
