// Tests of the differential run comparison behind `memstream-report
// --diff`: run pairing, per-section deltas (simulated, streams, slo,
// faults), significance thresholds, and the Markdown/HTML
// renderings. Reports are authored through the real RunReport /
// StreamJournal / SloMonitor classes so the JSON round trip is the one
// production writes.

#include "obs/report_merge.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"

namespace memstream::obs {
namespace {

/// One run.report.json with a streams + slo block. `faulted` sheds one
/// stream (re-admitting it) and burns availability budget.
std::string MakeRun(const std::string& title, bool faulted) {
  StreamJournal journal;
  const std::size_t a = journal.EnsureStream(1, 1e6, 2e6, 0.0);
  const std::size_t b = journal.EnsureStream(2, 1e6, 2e6, 0.0);
  journal.RecordIo(a, 0.5, 1000, 1e6);
  journal.RecordIo(b, 0.5, 1000, 1e6);
  if (faulted) {
    journal.MarkShed(b, 2.0);
    journal.MarkReadmitted(b, 8.0);
  }
  journal.Finalize(30.0);

  SloMonitor monitor;
  Slo* availability = monitor.Add(StandardAvailabilitySlo());
  availability->Record(1.0, 100, faulted ? 10 : 0);

  RunReport report;
  report.title = title;
  report.AddConfig("mode", "mems-cache");
  report.AddAnalytic("dram_total_bytes", 4e6);
  report.AddSimulated("underflow_events", faulted ? 6.0 : 0.0);
  report.AddSimulated("ios_completed", 1000.0);
  report.streams = &journal;
  report.slo = &monitor;
  return report.ToJson();
}

const DiffRow* FindRow(const std::vector<DiffRow>& rows,
                       const std::string& key) {
  for (const auto& r : rows) {
    if (r.key == key) return &r;
  }
  return nullptr;
}

/// The row `key` of `pair`'s section `section`, or null.
const DiffRow* FindRow(const RunPairDiff& pair, const std::string& section,
                       const std::string& key) {
  const DiffSection* rows = pair.Find(section);
  return rows != nullptr ? FindRow(rows->rows, key) : nullptr;
}

TEST(ReportDiffTest, FaultedVsCleanHighlightsAvailabilityAndSheds) {
  ReportBundle clean;
  ASSERT_TRUE(AddReportInput("clean.json", MakeRun("run", false), &clean)
                  .ok());
  ReportBundle faulted;
  ASSERT_TRUE(
      AddReportInput("faulted.json", MakeRun("run", true), &faulted).ok());

  const BundleDiff diff = ComputeBundleDiff(clean, faulted, DiffOptions{},
                                            "clean.json", "faulted.json");
  ASSERT_EQ(diff.pairs.size(), 1u);
  EXPECT_TRUE(diff.only_in_a.empty());
  EXPECT_TRUE(diff.only_in_b.empty());
  const RunPairDiff& pair = diff.pairs[0];

  const DiffRow* shed = FindRow(pair, "streams", "shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_DOUBLE_EQ(shed->a, 0);
  EXPECT_DOUBLE_EQ(shed->b, 1);
  EXPECT_DOUBLE_EQ(shed->delta, 1);
  EXPECT_TRUE(shed->significant);
  const DiffRow* readmitted = FindRow(pair, "streams", "readmitted");
  ASSERT_NE(readmitted, nullptr);
  EXPECT_DOUBLE_EQ(readmitted->delta, 1);

  const DiffRow* attainment = FindRow(pair, "slo", "availability.attainment");
  ASSERT_NE(attainment, nullptr);
  EXPECT_LT(attainment->delta, 0);  // faulted run attains less
  EXPECT_TRUE(attainment->significant);

  const DiffRow* underflows = FindRow(pair, "simulated", "underflow_events");
  ASSERT_NE(underflows, nullptr);
  EXPECT_DOUBLE_EQ(underflows->delta, 6);
  EXPECT_TRUE(underflows->significant);

  EXPECT_GT(diff.SignificantCount(), 0u);
}

TEST(ReportDiffTest, IdenticalRunsProduceNoSignificantRows) {
  ReportBundle a;
  ReportBundle b;
  ASSERT_TRUE(AddReportInput("a.json", MakeRun("run", false), &a).ok());
  ASSERT_TRUE(AddReportInput("b.json", MakeRun("run", false), &b).ok());
  const BundleDiff diff =
      ComputeBundleDiff(a, b, DiffOptions{}, "a", "b");
  ASSERT_EQ(diff.pairs.size(), 1u);
  EXPECT_EQ(diff.SignificantCount(), 0u);
  // The rows are still compared, just not flagged.
  const DiffSection* simulated = diff.pairs[0].Find("simulated");
  ASSERT_NE(simulated, nullptr);
  EXPECT_FALSE(simulated->rows.empty());
}

TEST(ReportDiffTest, ThresholdsSuppressSmallRelativeChanges) {
  ReportBundle a;
  ReportBundle b;
  RunReport ra;
  ra.title = "run";
  ra.AddSimulated("ios_completed", 1000.0);
  RunReport rb;
  rb.title = "run";
  rb.AddSimulated("ios_completed", 1010.0);  // +1%
  ASSERT_TRUE(AddReportInput("a.json", ra.ToJson(), &a).ok());
  ASSERT_TRUE(AddReportInput("b.json", rb.ToJson(), &b).ok());

  DiffOptions strict;  // default 2% threshold: 1% is noise
  const BundleDiff quiet = ComputeBundleDiff(a, b, strict, "a", "b");
  const DiffRow* row = FindRow(quiet.pairs[0], "simulated", "ios_completed");
  ASSERT_NE(row, nullptr);
  EXPECT_FALSE(row->significant);

  DiffOptions loose;
  loose.rel_threshold = 0.005;  // 0.5%: now it matters
  const BundleDiff loud = ComputeBundleDiff(a, b, loose, "a", "b");
  EXPECT_TRUE(
      FindRow(loud.pairs[0], "simulated", "ios_completed")->significant);
}

TEST(ReportDiffTest, UnpairedRunsAndOneSidedKeysAreMarked) {
  ReportBundle a;
  ReportBundle b;
  ASSERT_TRUE(AddReportInput("a1.json", MakeRun("shared", false), &a).ok());
  ASSERT_TRUE(AddReportInput("a2.json", MakeRun("solo A", false), &a).ok());
  ASSERT_TRUE(AddReportInput("b1.json", MakeRun("shared", true), &b).ok());

  const BundleDiff diff =
      ComputeBundleDiff(a, b, DiffOptions{}, "a", "b");
  ASSERT_EQ(diff.pairs.size(), 1u);
  ASSERT_EQ(diff.only_in_a.size(), 1u);
  EXPECT_EQ(diff.only_in_a[0], "solo A");
  EXPECT_TRUE(diff.only_in_b.empty());

  // A key present on one side only is marked rather than zero-diffed.
  RunReport ra;
  ra.title = "keys";
  ra.AddSimulated("only_a_metric", 5.0);
  RunReport rb;
  rb.title = "keys";
  rb.AddSimulated("only_b_metric", 7.0);
  ReportBundle ka;
  ReportBundle kb;
  ASSERT_TRUE(AddReportInput("ka.json", ra.ToJson(), &ka).ok());
  ASSERT_TRUE(AddReportInput("kb.json", rb.ToJson(), &kb).ok());
  const BundleDiff kd = ComputeBundleDiff(ka, kb, DiffOptions{}, "a", "b");
  const DiffRow* only_a = FindRow(kd.pairs[0], "simulated", "only_a_metric");
  ASSERT_NE(only_a, nullptr);
  EXPECT_TRUE(only_a->only_a);
  EXPECT_TRUE(only_a->significant);
  const DiffRow* only_b = FindRow(kd.pairs[0], "simulated", "only_b_metric");
  ASSERT_NE(only_b, nullptr);
  EXPECT_TRUE(only_b->only_b);
}

TEST(ReportDiffTest, RenderersEmbedTheComparison) {
  ReportBundle clean;
  ReportBundle faulted;
  ASSERT_TRUE(
      AddReportInput("clean.json", MakeRun("run", false), &clean).ok());
  ASSERT_TRUE(
      AddReportInput("faulted.json", MakeRun("run", true), &faulted).ok());
  const BundleDiff diff = ComputeBundleDiff(clean, faulted, DiffOptions{},
                                            "clean.json", "faulted.json");

  const std::string md = RenderMarkdownDiff(diff, "clean vs faulted");
  EXPECT_NE(md.find("clean vs faulted"), std::string::npos);
  EXPECT_NE(md.find("clean.json"), std::string::npos);
  EXPECT_NE(md.find("faulted.json"), std::string::npos);
  EXPECT_NE(md.find("availability.attainment"), std::string::npos) << md;
  EXPECT_NE(md.find("shed"), std::string::npos);

  const std::string html = RenderHtmlDiff(diff, "clean vs faulted");
  EXPECT_NE(html.find("<html"), std::string::npos);
  EXPECT_NE(html.find("availability.attainment"), std::string::npos);
  EXPECT_NE(html.find("clean vs faulted"), std::string::npos);
}

}  // namespace
}  // namespace memstream::obs
