// Seeded end-to-end acceptance of the observability tentpole: one
// deterministic striped-cache fault run, wired through the stream
// journal and SLO monitor, must (1) journal the exact shed ->
// re-admitted transition for a named stream id, (2) burn the
// availability error budget over the outage, (3) carry that state in
// the monitor's status JSON, and (4) surface the availability delta when
// the faulted run is diffed against a clean twin.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/json_parser.h"
#include "obs/metrics.h"
#include "obs/report_merge.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "server/media_server.h"

namespace memstream::server {
namespace {

// The striped scenario from fault_e2e_test: losing device 1 at t=10
// breaks the stripe, the tail of the cached id range [15, 30) sheds
// deterministically (stream 29 first), and repair at t=18 + 1s refill
// re-admits at t=19.
constexpr std::int64_t kNamedStream = 29;
constexpr Seconds kFailAt = 10;
constexpr Seconds kRepairAt = 18;
constexpr Seconds kReadmitAt = 19;

MediaServerConfig StripedOutage(obs::StreamJournal* journal,
                                obs::SloMonitor* slo,
                                obs::MetricsRegistry* metrics,
                                bool faulted) {
  MediaServerConfig config;
  config.mode = ServerMode::kMemsCache;
  config.cache_policy = model::CachePolicy::kStriped;
  config.k = 2;
  config.num_streams = 30;
  config.cached_fraction_of_streams = 0.5;
  config.bit_rate = 8 * kMBps;
  config.sim_duration = 30;
  config.journal = journal;
  config.slo = slo;
  config.metrics = metrics;
  if (faulted) {
    std::vector<fault::FaultEvent> events;
    events.push_back({kFailAt, fault::FaultKind::kMemsDeviceFail, 1, 0});
    events.push_back({kRepairAt, fault::FaultKind::kMemsDeviceRepair, 1,
                      kRepairAt - kFailAt});
    config.fault_plan = fault::FaultPlan::FromScript(std::move(events));
    config.fault_refill_delay = 1.0;
  }
  return config;
}

TEST(JournalSloE2eTest, UnrepairedOutageLeavesStreamsStillShed) {
  // Device 1 fails at t=10 and is never repaired: the shed tail of the
  // cached range stays shed until the run ends and every stream departs.
  obs::StreamJournal journal;
  obs::SloMonitor slo;
  obs::MetricsRegistry metrics;
  auto config = StripedOutage(&journal, &slo, &metrics, /*faulted=*/false);
  config.fault_plan = fault::FaultPlan::FromScript(
      {{kFailAt, fault::FaultKind::kMemsDeviceFail, 1, 0}});
  auto result = RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::int64_t never_readmitted = 0;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const obs::StreamJournalEntry& e = journal.entry(i);
    EXPECT_EQ(e.phase, obs::StreamPhase::kDeparted);
    if (e.sheds > 0 && e.readmits == 0) ++never_readmitted;
  }
  ASSERT_GT(never_readmitted, 0) << "the outage shed nothing";
  const obs::StreamJournalSummary summary = journal.Summarize();
  EXPECT_EQ(summary.departed, summary.count);
  EXPECT_EQ(summary.still_shed, never_readmitted);
  EXPECT_DOUBLE_EQ(metrics.gauge("stream.still_shed")->value(),
                   static_cast<double>(never_readmitted));
  const std::string json =
      BuildRunReport(config, result.value(), &metrics).ToJson();
  EXPECT_NE(json.find("\"still_shed\":" + std::to_string(never_readmitted)),
            std::string::npos)
      << json.substr(0, 2000);
}

TEST(JournalSloE2eTest, FaultRunJournalsShedReadmitBurnsBudgetAndDiffs) {
  // --- the faulted run ---
  obs::StreamJournal journal;
  obs::SloMonitor slo;
  obs::MetricsRegistry metrics;
  auto config = StripedOutage(&journal, &slo, &metrics, /*faulted=*/true);
  auto result = RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // (1) The named stream's journal holds the exact shed -> re-admitted
  // transition, at the scripted outage times.
  const std::ptrdiff_t slot = journal.SlotOf(kNamedStream);
  ASSERT_GE(slot, 0) << "stream " << kNamedStream << " never journaled";
  const obs::StreamJournalEntry& entry =
      journal.entry(static_cast<std::size_t>(slot));
  EXPECT_EQ(entry.sheds, 1);
  EXPECT_EQ(entry.readmits, 1);
  EXPECT_EQ(entry.phase, obs::StreamPhase::kDeparted);
  std::ptrdiff_t shed_at = -1;
  std::ptrdiff_t readmit_at = -1;
  for (std::size_t i = 0; i < entry.events.size(); ++i) {
    if (entry.events[i].kind == obs::StreamEventKind::kShed) {
      shed_at = static_cast<std::ptrdiff_t>(i);
      EXPECT_NEAR(entry.events[i].t, kFailAt, 1e-9);
    }
    if (entry.events[i].kind == obs::StreamEventKind::kReadmitted) {
      readmit_at = static_cast<std::ptrdiff_t>(i);
      EXPECT_NEAR(entry.events[i].t, kReadmitAt, 1e-9);
    }
  }
  ASSERT_GE(shed_at, 0) << "no shed event journaled";
  ASSERT_GE(readmit_at, 0) << "no readmit event journaled";
  EXPECT_EQ(readmit_at, shed_at + 1) << "re-admit must follow the shed";

  // The journal summary agrees and reached the metrics registry.
  const obs::StreamJournalSummary summary = journal.Summarize();
  EXPECT_GE(summary.shed, 1);
  EXPECT_GE(summary.readmitted, 1);
  EXPECT_EQ(summary.departed, summary.count);
  EXPECT_DOUBLE_EQ(metrics.gauge("stream.shed")->value(),
                   static_cast<double>(summary.shed));

  // (2) The availability SLO burned over the outage window.
  const obs::Slo* availability = slo.Find("availability");
  ASSERT_NE(availability, nullptr);
  EXPECT_GT(availability->bad(), 0) << "outage burned no availability budget";
  EXPECT_LT(availability->attainment(), 1.0);
  EXPECT_LT(availability->budget_remaining(), 1.0);
  EXPECT_GT(metrics.gauge("slo.availability.attainment")->value(), 0.0);

  // (3) The status JSON carries the burn.
  const std::string status = slo.StatusJson();
  bool ok = false;
  const obs::JsonValue doc = obs::ParseJson(status, &ok);
  ASSERT_TRUE(ok) << status;
  const obs::JsonValue* slos = doc.Find("slos");
  ASSERT_NE(slos, nullptr);
  bool carried = false;
  for (const auto& s : slos->array) {
    if (s.Str("name") == "availability") {
      carried = true;
      EXPECT_GT(s.Num("bad"), 0);
      EXPECT_LT(s.Num("attainment"), 1.0);
    }
  }
  EXPECT_TRUE(carried) << status;

  // (4) Diffing faulted vs clean highlights the availability delta.
  obs::StreamJournal clean_journal;
  obs::SloMonitor clean_slo;
  auto clean_config =
      StripedOutage(&clean_journal, &clean_slo, nullptr, /*faulted=*/false);
  auto clean_result = RunMediaServer(clean_config);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status().ToString();
  EXPECT_EQ(clean_slo.Find("availability")->bad(), 0);

  obs::ReportBundle clean_bundle;
  obs::ReportBundle faulted_bundle;
  ASSERT_TRUE(obs::AddReportInput(
                  "clean.json",
                  BuildRunReport(clean_config, clean_result.value()).ToJson(),
                  &clean_bundle)
                  .ok());
  ASSERT_TRUE(obs::AddReportInput(
                  "faulted.json",
                  BuildRunReport(config, result.value(), &metrics).ToJson(),
                  &faulted_bundle)
                  .ok());
  // An 8-second outage in a 30-second run dents attainment by well
  // under a percent (the baseline is 1.0), but it torches over a tenth
  // of the error budget — the budget, not raw attainment, is where a
  // short outage shows, and the default thresholds must flag it.
  const obs::BundleDiff diff =
      obs::ComputeBundleDiff(clean_bundle, faulted_bundle, obs::DiffOptions{},
                             "clean.json", "faulted.json");
  ASSERT_EQ(diff.pairs.size(), 1u);
  const obs::DiffSection* slo_diff = diff.pairs[0].Find("slo");
  const obs::DiffSection* streams_diff = diff.pairs[0].Find("streams");
  ASSERT_NE(slo_diff, nullptr);
  ASSERT_NE(streams_diff, nullptr);
  bool availability_flagged = false;
  std::string slo_rows;
  for (const auto& row : slo_diff->rows) {
    slo_rows += row.key + " a=" + std::to_string(row.a) +
                " b=" + std::to_string(row.b) +
                " delta=" + std::to_string(row.delta) +
                (row.significant ? " significant\n" : "\n");
    if (row.key == "availability.budget_remaining") {
      availability_flagged = row.significant && row.delta < 0;
    }
    if (row.key == "availability.attainment") {
      EXPECT_LT(row.delta, 0) << "faulted run should attain less";
    }
  }
  EXPECT_TRUE(availability_flagged)
      << "diff did not flag the availability budget burn:\n"
      << slo_rows;
  bool shed_flagged = false;
  for (const auto& row : streams_diff->rows) {
    if (row.key == "shed") {
      shed_flagged = row.significant && row.delta > 0;
    }
  }
  EXPECT_TRUE(shed_flagged) << "diff did not flag the shed-stream delta";
  const std::string markdown =
      obs::RenderMarkdownDiff(diff, "faulted vs clean");
  EXPECT_NE(markdown.find("availability.attainment"), std::string::npos);
}

}  // namespace
}  // namespace memstream::server
