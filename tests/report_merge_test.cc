#include "obs/report_merge.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json_parser.h"
#include "obs/qos_auditor.h"
#include "obs/run_report.h"
#include "obs/timeline.h"

namespace memstream::obs {
namespace {

/// A bench sweep-cost array, the format memstream-report no longer reads.
std::string BenchSweepsJson() {
  return R"([
    {"bench":"sim_validation","tasks":7,"threads":4,
     "wall_seconds":12.5,"events":100000,"events_per_sec":8000},
    {"bench":"sim_validation","tasks":7,"threads":4,
     "wall_seconds":11.0,"events":100000,"events_per_sec":9090.9},
    {"bench":"ablation_edf","tasks":3,"threads":4,
     "wall_seconds":4.25,"events":5000,"events_per_sec":1176.4}
  ])";
}

/// A run report built through the real RunReport/QosAuditor/Timeline
/// classes, so the test exercises the actual JSON round trip.
std::string MakeRunReportJson(const std::string& title, bool violate) {
  QosAuditorConfig qc;
  qc.disk_cycle = 1.0;
  QosAuditor auditor(qc);
  auditor.AddStream(3, 1 * kMBps, 2 * kMB, QosDomain::kDisk);
  auditor.Seal();
  auditor.RecordIo(0, 1 * kMB);
  auditor.EndDiskCycle(0, violate ? 1.5 : 0.5);

  TimelineRecorder timelines;
  TimelineSeries* s = timelines.AddSeries("stream.3.dram_bytes", "bytes");
  for (int i = 0; i < 8; ++i) s->Record(i * 0.5, 1000.0 * i);

  RunReport report;
  report.title = title;
  report.AddConfig("mode", "direct");
  report.AddAnalytic("dram_total_mb", 20.0);
  report.AddSimulated("dram_total_mb", 21.0);
  report.AddSimulated("qos_violations",
                      static_cast<double>(auditor.total_violations()));
  report.qos = &auditor;
  report.timelines = &timelines;
  report.trace_dropped_records = violate ? 17 : 0;
  return report.ToJson();
}

/// A run report carrying a "faults" block (a striped outage with one
/// shed-then-readmitted stream and one still-shed stream).
std::string MakeFaultyRunReportJson() {
  FaultsBlock faults;
  faults.events = 2;
  faults.repairs = 1;
  faults.replans = 2;
  faults.sheds = 2;
  faults.readmits = 1;
  faults.dropped_during_burst = 5;
  faults.total_shed_time = 14.5;
  faults.timeline.push_back(
      {10.0, "mems-device-fail", 1, 0.0, "cache down: shed 2"});
  faults.timeline.push_back({18.0, "mems-device-repair", 1, 0.0, "cleared"});
  faults.shed_streams.push_back({28, 10.0, 700, 18.5});
  faults.shed_streams.push_back({29, 10.0, 700, -1.0});

  RunReport report;
  report.title = "faulty run";
  report.AddConfig("mode", "mems_cache");
  report.AddSimulated("underflow_events", 0);
  report.faults = &faults;
  return report.ToJson();
}

TEST(ReportMergeTest, ClassifiesInputsByContent) {
  EXPECT_EQ(ClassifyReportInput(MakeRunReportJson("r", false)),
            ReportInputKind::kRunReport);
  EXPECT_EQ(ClassifyReportInput(BenchSweepsJson()),
            ReportInputKind::kUnknown);
  EXPECT_EQ(ClassifyReportInput("[]"), ReportInputKind::kUnknown);
  EXPECT_EQ(ClassifyReportInput("not json at all"),
            ReportInputKind::kUnknown);
  EXPECT_EQ(ClassifyReportInput("{\"foo\":1}"), ReportInputKind::kUnknown);
}

TEST(ReportMergeTest, MergesRunsAndBenchRecordsIntoOneBundle) {
  ReportBundle bundle;
  ASSERT_TRUE(
      AddReportInput("a.json", MakeRunReportJson("run A", true), &bundle)
          .ok());
  ASSERT_TRUE(
      AddReportInput("b.json", MakeRunReportJson("run B", false), &bundle)
          .ok());
  // Bench records are not an input kind: the file is an error and the
  // runs stay in the bundle.
  EXPECT_FALSE(
      AddReportInput("BENCH_sweeps.json", BenchSweepsJson(), &bundle).ok());
  ASSERT_EQ(bundle.errors.size(), 1u);
  EXPECT_NE(bundle.errors[0].find("BENCH_sweeps.json"), std::string::npos);

  ASSERT_EQ(bundle.runs.size(), 2u);
  const JsonValue& run_a = bundle.runs[0].doc;
  EXPECT_EQ(bundle.runs[0].title, "run A");
  EXPECT_EQ(run_a.Num("schema_version"), kRunReportSchemaVersion);
  const JsonValue* qos = run_a.Find("qos");
  ASSERT_NE(qos, nullptr);
  EXPECT_EQ(qos->Num("total_violations"), 1);
  EXPECT_EQ(run_a.Num("trace_dropped_records"), 17);
  const JsonValue* violations = qos->Find("violations");
  ASSERT_NE(violations, nullptr);
  ASSERT_EQ(violations->array.size(), 1u);
  EXPECT_EQ(violations->array[0].Str("invariant"), "disk_cycle_overrun");
  EXPECT_EQ(bundle.runs[1].doc.Find("qos")->Num("total_violations"), 0);
  const JsonValue* timelines = run_a.Find("timelines");
  ASSERT_NE(timelines, nullptr);
  ASSERT_EQ(timelines->array.size(), 1u);
  EXPECT_EQ(timelines->array[0].Str("name"), "stream.3.dram_bytes");
  EXPECT_EQ(timelines->array[0].Find("points")->array.size(), 8u);

  // One merged violation row, tagged with its run.
  const std::string md = RenderMarkdownReport(bundle, "t");
  EXPECT_NE(md.find("| run A | disk_cycle_overrun |"), std::string::npos)
      << md;
  EXPECT_EQ(md.find("disk_cycle_overrun"), md.rfind("disk_cycle_overrun"));

  // Analytic-vs-simulated delta for the shared key: delta 1, rel 0.05.
  EXPECT_NE(md.find("| dram_total_mb | 20 | 21 | 1 | 0.05 |"),
            std::string::npos)
      << md;
}

TEST(ReportMergeTest, LoadsFaultsBlockAndRendersIt) {
  ReportBundle bundle;
  ASSERT_TRUE(
      AddReportInput("f.json", MakeFaultyRunReportJson(), &bundle).ok());
  ASSERT_EQ(bundle.runs.size(), 1u);
  const JsonValue* faults = bundle.runs[0].doc.Find("faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->Num("events"), 2);
  EXPECT_EQ(faults->Num("repairs"), 1);
  EXPECT_EQ(faults->Num("replans"), 2);
  EXPECT_EQ(faults->Num("sheds"), 2);
  EXPECT_EQ(faults->Num("readmits"), 1);
  EXPECT_EQ(faults->Num("dropped_during_burst"), 5);
  EXPECT_DOUBLE_EQ(faults->Num("total_shed_time"), 14.5);
  const auto& timeline = faults->Find("timeline")->array;
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].Str("kind"), "mems-device-fail");
  EXPECT_EQ(timeline[0].Num("device"), 1);
  EXPECT_EQ(timeline[0].Str("action"), "cache down: shed 2");
  const auto& shed = faults->Find("shed_streams")->array;
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0].Num("stream_id"), 28);
  EXPECT_DOUBLE_EQ(shed[0].Num("readmit_time"), 18.5);
  EXPECT_LT(shed[1].Num("readmit_time"), 0);

  const std::string md = RenderMarkdownReport(bundle, "faults");
  EXPECT_NE(md.find("### Faults"), std::string::npos);
  EXPECT_NE(md.find("mems-device-fail"), std::string::npos);
  EXPECT_NE(md.find("cache down: shed 2"), std::string::npos);
  EXPECT_NE(md.find("| 28 | 10 | 700 | 18.5 |"), std::string::npos);
  EXPECT_NE(md.find("never"), std::string::npos);
  EXPECT_NE(md.find("dropped 5 records during fault bursts"),
            std::string::npos);

  const std::string html = RenderHtmlDashboard(bundle, "faults");
  EXPECT_NE(html.find("<h3>Faults</h3>"), std::string::npos);
  EXPECT_NE(html.find("mems-device-fail"), std::string::npos);
  EXPECT_NE(html.find("2 stream(s) shed"), std::string::npos);
  EXPECT_NE(html.find("never"), std::string::npos);
  // Runs without a faults block render no faults section.
  ReportBundle clean;
  ASSERT_TRUE(
      AddReportInput("c.json", MakeRunReportJson("clean", false), &clean)
          .ok());
  EXPECT_EQ(clean.runs[0].doc.Find("faults"), nullptr);
  EXPECT_EQ(RenderMarkdownReport(clean, "t").find("### Faults"),
            std::string::npos);
}

TEST(ReportMergeTest, MalformedInputIsAnErrorButKeepsTheBundle) {
  ReportBundle bundle;
  EXPECT_FALSE(AddReportInput("junk.txt", "not json", &bundle).ok());
  ASSERT_EQ(bundle.errors.size(), 1u);
  EXPECT_NE(bundle.errors[0].find("junk.txt"), std::string::npos);
  EXPECT_TRUE(
      AddReportInput("ok.json", MakeRunReportJson("ok", false), &bundle)
          .ok());
  EXPECT_EQ(bundle.runs.size(), 1u);
}

TEST(ReportMergeTest, MarkdownHasViolationAndBenchSections) {
  ReportBundle bundle;
  ASSERT_TRUE(
      AddReportInput("a.json", MakeRunReportJson("run A", true), &bundle)
          .ok());
  EXPECT_FALSE(
      AddReportInput("BENCH_sweeps.json", BenchSweepsJson(), &bundle).ok());

  const std::string md = RenderMarkdownReport(bundle, "nightly");
  EXPECT_NE(md.find("## Violations"), std::string::npos);
  EXPECT_NE(md.find("disk_cycle_overrun"), std::string::npos);
  // The rejected bench file shows as a load warning, not as a section.
  EXPECT_NE(md.find("BENCH_sweeps.json: not a run report"),
            std::string::npos)
      << md;
  EXPECT_EQ(md.find("## Bench trajectory"), std::string::npos);
  EXPECT_EQ(md.find("sim_validation"), std::string::npos);
}

TEST(ReportMergeTest, HtmlDashboardIsStandaloneWithAllSections) {
  ReportBundle bundle;
  ASSERT_TRUE(
      AddReportInput("a.json", MakeRunReportJson("run A", true), &bundle)
          .ok());
  ASSERT_TRUE(
      AddReportInput("b.json", MakeRunReportJson("run B", false), &bundle)
          .ok());

  const std::string html = RenderHtmlDashboard(bundle, "nightly <&>");
  EXPECT_NE(html.find("<h2>Violations</h2>"), std::string::npos);
  EXPECT_NE(html.find("disk_cycle_overrun"), std::string::npos);
  EXPECT_NE(html.find("<h2>Slack percentiles</h2>"), std::string::npos);
  EXPECT_NE(html.find("run B"), std::string::npos);
  // Title is escaped.
  EXPECT_NE(html.find("nightly &lt;&amp;&gt;"), std::string::npos);
  EXPECT_EQ(html.find("nightly <&>"), std::string::npos);
  // Standalone: no scripts, stylesheets, images, or remote fetches.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("<img"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

// -------------------------------------------------------------------
// End-to-end through the installed CLI binary.
// -------------------------------------------------------------------

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  EXPECT_TRUE(out.good());
  out << content;
  out.close();
  return path;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(MemstreamReportCliTest, MergesReportsIntoOneHtmlDashboard) {
  const std::string a =
      WriteTempFile("cli_a.report.json", MakeRunReportJson("run A", true));
  const std::string b =
      WriteTempFile("cli_b.report.json", MakeRunReportJson("run B", false));
  const std::string html = ::testing::TempDir() + "cli_dashboard.html";
  const std::string md = ::testing::TempDir() + "cli_report.md";

  const std::string cmd = std::string(MEMSTREAM_REPORT_BIN) + " " + a +
                          " " + b + " -o " + html + " --md " + md +
                          " --title nightly";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::string dashboard = Slurp(html);
  ASSERT_FALSE(dashboard.empty());
  EXPECT_NE(dashboard.find("<h2>Violations</h2>"), std::string::npos);
  EXPECT_NE(dashboard.find("disk_cycle_overrun"), std::string::npos);
  EXPECT_NE(dashboard.find("<h2>Slack percentiles</h2>"), std::string::npos);
  EXPECT_NE(dashboard.find("run A"), std::string::npos);
  EXPECT_NE(dashboard.find("run B"), std::string::npos);
  EXPECT_EQ(dashboard.find("<script"), std::string::npos);

  const std::string markdown = Slurp(md);
  EXPECT_NE(markdown.find("## Violations"), std::string::npos);
  EXPECT_NE(markdown.find("## Slack percentiles"), std::string::npos);
}

TEST(MemstreamReportCliTest, RejectsEmptyAndNonFiniteThresholds) {
  const std::string a =
      WriteTempFile("cli_thr_a.report.json", MakeRunReportJson("run", false));
  const std::string b =
      WriteTempFile("cli_thr_b.report.json", MakeRunReportJson("run", true));
  auto exit_code = [&](const std::string& threshold) {
    const std::string cmd = std::string(MEMSTREAM_REPORT_BIN) + " --diff " +
                            a + " " + b + " --threshold " + threshold +
                            " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  EXPECT_EQ(exit_code("0.05"), 0);
  // Usage errors, not a silent 0 or a threshold that disables the test.
  EXPECT_EQ(exit_code("\"\""), 1);
  EXPECT_EQ(exit_code("nan"), 1);
  EXPECT_EQ(exit_code("inf"), 1);
  EXPECT_EQ(exit_code("-inf"), 1);
  EXPECT_EQ(exit_code("-0.5"), 1);
  EXPECT_EQ(exit_code("0.1x"), 1);
}

TEST(MemstreamReportCliTest, FailsWhenNoInputLoads) {
  const std::string missing = ::testing::TempDir() + "cli_does_not_exist";
  const std::string cmd =
      std::string(MEMSTREAM_REPORT_BIN) + " " + missing + " 2>/dev/null";
  EXPECT_NE(std::system(cmd.c_str()), 0);
}

// -------------------------------------------------------------------
// Hostile inputs: the reader must return a status and the renderers must
// not crash (the sanitizer build runs these).
// -------------------------------------------------------------------

std::string Fixture(const std::string& name) {
  return Slurp(std::string(MEMSTREAM_REPORT_FIXTURES) + "/" + name);
}

/// `levels` containers opened with `open` and closed with `close`
/// around `leaf`.
std::string Nest(std::size_t levels, const std::string& open,
                 const std::string& leaf, const std::string& close) {
  std::string out;
  for (std::size_t i = 0; i < levels; ++i) out += open;
  out += leaf;
  for (std::size_t i = 0; i < levels; ++i) out += close;
  return out;
}

void RenderEverything(const ReportBundle& bundle) {
  EXPECT_FALSE(RenderMarkdownReport(bundle, "t").empty());
  EXPECT_FALSE(RenderHtmlDashboard(bundle, "t").empty());
  const BundleDiff diff = ComputeBundleDiff(bundle, bundle, DiffOptions{},
                                            "a", "b");
  EXPECT_FALSE(RenderMarkdownDiff(diff, "t").empty());
  EXPECT_FALSE(RenderHtmlDiff(diff, "t").empty());
}

TEST(ReportMergeTest, EveryTruncatedPrefixReturnsAStatusAndRenders) {
  const std::string full = Fixture("clean.report.json");
  ASSERT_FALSE(full.empty());
  for (std::size_t n = 0; n < full.size(); ++n) {
    ReportBundle bundle;
    const Status status =
        AddReportInput("prefix.json", full.substr(0, n), &bundle);
    EXPECT_EQ(status.ok(), bundle.errors.empty()) << "prefix " << n;
    RenderEverything(bundle);
  }
}

/// `doc` with `"key": value` added as its first member.
std::string WithBlock(const std::string& doc, const std::string& key,
                      const std::string& value) {
  return "{\"" + key + "\":" + value + "," + doc.substr(doc.find('{') + 1);
}

TEST(ReportMergeTest, UndeclaredBlockRendersAndDiffsWithoutReaderCode) {
  const std::string faulted = Fixture("faulted.report.json");
  ASSERT_FALSE(faulted.empty());
  const std::string rows = R"("rows":[{"id":1,"name":"a|b"},{"id":2}])";
  ReportBundle a;
  ReportBundle b;
  ASSERT_TRUE(AddReportInput(
                  "a.json",
                  WithBlock(faulted, "widgets", "{\"count\":3," + rows + "}"),
                  &a)
                  .ok());
  ASSERT_TRUE(AddReportInput(
                  "b.json",
                  WithBlock(faulted, "widgets", "{\"count\":5," + rows + "}"),
                  &b)
                  .ok());

  const std::string md = RenderMarkdownReport(a, "t");
  EXPECT_NE(md.find("### widgets\n\n| widgets | value |\n|---|---|\n"
                    "| count | 3 |\n"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("widgets.rows\n\n| id | name |\n|---|---|\n"
                    "| 1 | a\\|b |\n| 2 |  |\n"),
            std::string::npos)
      << md;
  const std::string html = RenderHtmlDashboard(a, "t");
  EXPECT_NE(html.find("<h3>widgets</h3>\n<table><tr><th>widgets</th>"
                      "<th>value</th></tr>\n<tr><td>count</td><td>3</td>"),
            std::string::npos)
      << html;
  EXPECT_NE(html.find("<tr><td>1</td><td>a|b</td></tr>"), std::string::npos);

  const BundleDiff diff = ComputeBundleDiff(a, b, DiffOptions{}, "a", "b");
  ASSERT_EQ(diff.pairs.size(), 1u);
  const DiffSection* widgets = diff.pairs[0].Find("widgets");
  ASSERT_NE(widgets, nullptr);
  ASSERT_EQ(widgets->rows.size(), 1u);  // arrays without an id: not diffed
  EXPECT_EQ(widgets->rows[0].key, "count");
  EXPECT_DOUBLE_EQ(widgets->rows[0].delta, 2);
  EXPECT_TRUE(widgets->rows[0].significant);
  EXPECT_EQ(diff.SignificantCount(), 1u);
  EXPECT_NE(RenderMarkdownDiff(diff, "t").find("### widgets\n\n| key | A | "
                                               "B | delta |\n|---|---|---|"
                                               "---|\n| **count** | 3 | 5 |"),
            std::string::npos);
  EXPECT_NE(RenderHtmlDiff(diff, "t").find("<h3>widgets</h3>"),
            std::string::npos);
}

TEST(ReportMergeTest, NonFiniteTimelinePointsDrawNoNanCoordinates) {
  // 1e999 parses to +inf: two of the timeline's points are not finite.
  const std::string report = R"({"schema_version":4,"title":"r",
    "timelines":[{"name":"s","unit":"u",
                  "points":[[0,1],[1,-1e999],[2,3],[3,1e999]]}]})";
  ReportBundle bundle;
  ASSERT_TRUE(AddReportInput("r.json", report, &bundle).ok());

  const std::string html = RenderHtmlDashboard(bundle, "t");
  std::size_t svgs = 0;
  for (std::size_t at = html.find("points=\""); at != std::string::npos;
       at = html.find("points=\"", at + 1)) {
    const std::string coords =
        html.substr(at, html.find('"', at + 8) - at);
    EXPECT_EQ(coords.find("nan"), std::string::npos) << coords;
    EXPECT_EQ(coords.find("inf"), std::string::npos) << coords;
    ++svgs;
  }
  EXPECT_EQ(svgs, 1u) << html;
  // The two finite points span the 240 x 36 box.
  EXPECT_NE(html.find("points=\"2,34 238,2\""), std::string::npos) << html;
}

TEST(ReportMergeTest, UndeclaredBlockNestedToMaxDepthRenders) {
  // The document root is one level, the block member the rest (the
  // innermost {"x":1} of the array form is one of them).
  const std::size_t levels = JsonParser::kMaxDepth - 1;
  const std::string objects = std::string(
      "{\"schema_version\":4,\"title\":\"deep\",\"deep\":") +
      Nest(levels, "{\"a\":", "1", "}") + "}";
  const std::string arrays = std::string(
      "{\"schema_version\":4,\"title\":\"deep\",\"deep\":") +
      Nest(levels - 1, "[", "{\"x\":1}", "]") + "}";
  for (const std::string& doc : {objects, arrays}) {
    ReportBundle bundle;
    EXPECT_TRUE(AddReportInput("deep.json", doc, &bundle).ok());
    RenderEverything(bundle);
  }
}

}  // namespace
}  // namespace memstream::obs
