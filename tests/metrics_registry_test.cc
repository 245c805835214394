#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace memstream::obs {
namespace {

TEST(MetricsRegistryTest, GetOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* c1 = registry.counter("server.ios");
  Counter* c2 = registry.counter("server.ios");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(registry.size(), 1u);

  c1->Increment();
  c1->Increment(2.5);
  EXPECT_DOUBLE_EQ(c2->value(), 3.5);
}

TEST(MetricsRegistryTest, HandlesSurviveLaterInsertions) {
  MetricsRegistry registry;
  Counter* c = registry.counter("a");
  c->Increment(7);
  // Force rebalancing-ish churn: many more entries.
  for (int i = 0; i < 100; ++i) {
    registry.gauge("g." + std::to_string(i))->Set(i);
  }
  EXPECT_DOUBLE_EQ(c->value(), 7);
  EXPECT_DOUBLE_EQ(registry.FindCounter("a")->value(), 7);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("queue.depth");
  g->Set(4);
  g->Add(-1);
  EXPECT_DOUBLE_EQ(g->value(), 3);
}

TEST(MetricsRegistryTest, HistogramObservesDistribution) {
  MetricsRegistry registry;
  HistogramMetric* h =
      registry.histogram("latency_ms", {0.0, 10.0, 10});
  for (int i = 0; i < 10; ++i) h->Observe(static_cast<double>(i));
  EXPECT_EQ(h->stats().count(), 10);
  EXPECT_DOUBLE_EQ(h->stats().min(), 0);
  EXPECT_DOUBLE_EQ(h->stats().max(), 9);
  EXPECT_DOUBLE_EQ(h->stats().mean(), 4.5);
  // Same handle on re-request; options of the first call win.
  EXPECT_EQ(registry.histogram("latency_ms", {0.0, 99.0, 3}), h);
}

TEST(MetricsRegistryTest, TimeWeightedGaugeAverages) {
  MetricsRegistry registry;
  TimeWeightedGauge* tw = registry.time_weighted("occupancy");
  tw->Update(0, 0);
  tw->Update(1, 10);   // held 0 for [0,1)
  tw->Update(3, 10);   // held 10 for [1,3)
  EXPECT_DOUBLE_EQ(tw->stats().TimeAverage(), (0 * 1 + 10 * 2) / 3.0);
  EXPECT_DOUBLE_EQ(tw->stats().max_value(), 10);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_EQ(registry.gauge("x"), nullptr);
  EXPECT_EQ(registry.FindGauge("x"), nullptr);
  EXPECT_NE(registry.FindCounter("x"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  EXPECT_EQ(registry.FindHistogram("missing"), nullptr);
  EXPECT_EQ(registry.FindTimeWeighted("missing"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsRegistryTest, SnapshotFlattensAllKindsInNameOrder) {
  MetricsRegistry registry;
  registry.counter("b.count")->Increment(5);
  registry.gauge("a.gauge")->Set(1.5);
  HistogramMetric* h = registry.histogram("c.hist", {0.0, 100.0, 10});
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  TimeWeightedGauge* tw = registry.time_weighted("d.tw");
  tw->Update(0, 2);
  tw->Update(2, 4);

  const std::vector<MetricSample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot[0].name, "a.gauge");
  EXPECT_EQ(snapshot[0].kind, "gauge");
  EXPECT_DOUBLE_EQ(snapshot[0].value, 1.5);
  EXPECT_EQ(snapshot[1].name, "b.count");
  EXPECT_EQ(snapshot[1].kind, "counter");
  EXPECT_DOUBLE_EQ(snapshot[1].value, 5);
  EXPECT_EQ(snapshot[2].name, "c.hist");
  EXPECT_EQ(snapshot[2].kind, "histogram");
  EXPECT_EQ(snapshot[2].count, 100);
  EXPECT_DOUBLE_EQ(snapshot[2].min, 1);
  EXPECT_DOUBLE_EQ(snapshot[2].max, 100);
  EXPECT_NEAR(snapshot[2].p50, 50, 5);
  EXPECT_NEAR(snapshot[2].p95, 95, 5);
  EXPECT_EQ(snapshot[3].name, "d.tw");
  EXPECT_EQ(snapshot[3].kind, "time_weighted");
  EXPECT_DOUBLE_EQ(snapshot[3].value, 2);  // time average
  EXPECT_DOUBLE_EQ(snapshot[3].max, 4);
}

TEST(MetricsRegistryTest, PrometheusNameRewritesToUnderscores) {
  EXPECT_EQ(PrometheusName("server.disk.cycle_slack_ms"),
            "server_disk_cycle_slack_ms");
  EXPECT_EQ(PrometheusName("device.mems#0.busy_seconds"),
            "device_mems_0_busy_seconds");
}

TEST(MetricsRegistryTest, PrometheusTextContainsAllMetrics) {
  MetricsRegistry registry;
  registry.counter("server.ios")->Increment(12);
  registry.gauge("server.utilization")->Set(0.5);
  HistogramMetric* h =
      registry.histogram("server.slack_ms", {0.0, 10.0, 10});
  h->Observe(5);
  TimeWeightedGauge* tw = registry.time_weighted("stream.0.dram_bytes");
  tw->Update(0, 100);
  tw->Update(1, 100);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("server_ios 12"), std::string::npos);
  EXPECT_NE(text.find("server_utilization 0.5"), std::string::npos);
  EXPECT_NE(text.find("server_slack_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("stream_0_dram_bytes_avg"), std::string::npos);
  // Dotted library names must not leak into the exposition.
  EXPECT_EQ(text.find("server.ios"), std::string::npos);
  EXPECT_EQ(text.find("stream.0"), std::string::npos);
}

TEST(MetricsRegistryTest, CsvHasHeaderAndOneRowPerMetric) {
  MetricsRegistry registry;
  registry.counter("a")->Increment();
  registry.gauge("b")->Set(2);
  const std::string csv = registry.ToCsvText();
  EXPECT_EQ(csv.find("name,kind,value,count,min,max,mean,p50,p95,p99"), 0u);
  std::size_t lines = 0;
  for (char ch : csv) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u);  // header + 2 metrics
}

TEST(MetricsRegistryTest, ParseMetricsCsvReadsTheSnapshotBack) {
  MetricsRegistry registry;
  registry.counter("ios, \"quoted\"")->Increment(7);
  HistogramMetric* h = registry.histogram("slack", {0, 1, 10});
  for (double v : {0.1, 0.4, 0.9}) h->Observe(v);
  const std::vector<MetricSample> want = registry.Snapshot();
  const std::vector<MetricSample> got =
      ParseMetricsCsv(registry.ToCsvText() + "\nshort,row\n");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_NEAR(got[i].value, want[i].value, 1e-5);  // 6 digits
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_NEAR(got[i].p95, want[i].p95, 1e-5);
  }
  // A count no int64 holds reads as 0 instead of overflowing.
  EXPECT_EQ(ParseMetricsCsv("h\nx,counter,1,inf,0,0,0,0,0,0\n")[0].count, 0);
}

TEST(MetricsRegistryTest, WriteCsvRoundTrips) {
  MetricsRegistry registry;
  registry.counter("written")->Increment(9);
  const std::string path = ::testing::TempDir() + "/metrics_test.csv";
  ASSERT_TRUE(registry.WriteCsv(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[256] = {};
  const std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
  std::fclose(f);
  const std::string contents(buffer, n);
  EXPECT_NE(contents.find("written,counter,9"), std::string::npos);
}

TEST(MetricsRegistryTest, ClearEmptiesRegistry) {
  MetricsRegistry registry;
  registry.counter("a");
  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.FindCounter("a"), nullptr);
}

TEST(MetricsRegistryTest, NullTolerantHelpersNoOpOnNull) {
  Increment(nullptr);
  Set(nullptr, 1.0);
  Observe(nullptr, 1.0);
  Update(nullptr, 0.0, 1.0);
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  Increment(c, 3);
  EXPECT_DOUBLE_EQ(c->value(), 3);
}

// Exposition-format regression: hostile help strings and label values
// (backslashes, newlines, quotes) must come out escaped, and hostile
// metric/label names must be rewritten into the legal charset.
TEST(MetricsRegistryTest, PrometheusEscapesHostileHelpAndLabels) {
  MetricsRegistry registry;
  registry.counter("evil.metric")->Increment();
  registry.SetHelp("evil.metric",
                   "line one\nline two with \\backslash\\ and \"quotes\"");
  registry.SetLabel("evil.metric", "path", "C:\\tmp\\run \"A\"\nnext");
  registry.SetLabel("evil.metric", "host name!", "plain");

  const std::string text = registry.ToPrometheusText();
  // Help: backslash doubled, newline as literal \n, quotes untouched.
  EXPECT_NE(text.find("# HELP evil_metric line one\\nline two with "
                      "\\\\backslash\\\\ and \"quotes\""),
            std::string::npos);
  // Label value: backslash doubled, quote escaped, newline as \n; the
  // label name is rewritten to the legal charset.
  EXPECT_NE(
      text.find("path=\"C:\\\\tmp\\\\run \\\"A\\\"\\nnext\""),
      std::string::npos);
  EXPECT_NE(text.find("host_name_=\"plain\""), std::string::npos);
  // No raw newline may survive inside any emitted line.
  for (std::size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    // Every newline must terminate a complete line: the next char starts
    // a new sample or comment, never a continuation of a quoted string.
    if (pos + 1 < text.size()) {
      EXPECT_NE(text[pos + 1], '"');
    }
  }
  // The sample line itself is present and parseable-looking.
  EXPECT_NE(text.find("evil_metric{"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusHistogramQuantilesKeepExtraLabels) {
  MetricsRegistry registry;
  auto* h = registry.histogram("lat.ms", {0, 10, 10});
  for (int i = 0; i < 100; ++i) h->Observe(i % 10);
  registry.SetLabel("lat.ms", "device", "disk\\0 \"primary\"");

  const std::string text = registry.ToPrometheusText();
  // Quantile lines must merge the constant label with the quantile label.
  EXPECT_NE(text.find("lat_ms{device=\"disk\\\\0 \\\"primary\\\"\","
                      "quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ms_count{device="), std::string::npos);
}

}  // namespace
}  // namespace memstream::obs
