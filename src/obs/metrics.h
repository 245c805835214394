// Metrics registry: named counters, gauges, histograms, and time-weighted
// gauges, snapshotable to CSV and to a Prometheus-style text format.
//
// Design rules:
//  - Handles returned by the registry are stable pointers; instrumented
//    code resolves them once (at construction) and updates through the
//    null-tolerant free helpers below. A null registry therefore costs
//    one pointer test per update site — near-zero overhead when
//    telemetry is disabled.
//  - Names are dot-separated, lowercase, with a unit suffix
//    (e.g. "server.disk.cycle_slack_ms", "device.mems#0.busy_seconds");
//    see docs/OBSERVABILITY.md for the full scheme. The Prometheus
//    export rewrites them to the usual underscore form.
//  - Distribution state reuses common/histogram.h (RunningStats,
//    Histogram, TimeWeightedStats) so telemetry and the analytical
//    benches agree on statistics.

#ifndef MEMSTREAM_OBS_METRICS_H_
#define MEMSTREAM_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"

namespace memstream::obs {

/// Monotonically increasing count (events, bytes, IOs).
class Counter {
 public:
  void Increment(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Last-write-wins instantaneous value (utilization, queue depth).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket distribution of observed samples (latencies, slack).
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t buckets)
      : histogram_(lo, hi, buckets) {}

  void Observe(double sample) { histogram_.Add(sample); }
  const Histogram& histogram() const { return histogram_; }
  const RunningStats& stats() const { return histogram_.stats(); }

  /// Bucket-wise merge; false (no-op) on layout mismatch.
  bool Merge(const HistogramMetric& other) {
    return histogram_.Merge(other.histogram_);
  }

 private:
  Histogram histogram_;
};

/// Piecewise-constant signal tracked by its time-average (occupancy).
class TimeWeightedGauge {
 public:
  /// Signal held `value` from the previous update until `now` (simulated
  /// seconds, non-decreasing).
  void Update(double now, double value) { stats_.Update(now, value); }
  const TimeWeightedStats& stats() const { return stats_; }
  void Merge(const TimeWeightedGauge& other) { stats_.Merge(other.stats_); }

 private:
  TimeWeightedStats stats_;
};

/// Bucket layout for histogram registration.
struct HistogramOptions {
  double lo = 0;
  double hi = 1;
  std::size_t buckets = 20;
};

/// One flattened metric snapshot row (see MetricsRegistry::Snapshot).
struct MetricSample {
  std::string name;
  std::string kind;  ///< "counter" | "gauge" | "histogram" | "time_weighted"
  double value = 0;  ///< counter/gauge value; histogram mean; tw average
  std::int64_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Parses MetricsRegistry::ToCsvText() output (header line first) back
/// into samples. Rows with fewer than ten cells are skipped; cells that
/// are not numbers read as 0.
std::vector<MetricSample> ParseMetricsCsv(const std::string& text);

/// Owner of all metrics for one run. Get-or-create semantics: asking for
/// an existing name returns the same handle (kind mismatches return the
/// existing metric of the requested kind's accessor as nullptr).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  HistogramMetric* histogram(const std::string& name,
                             const HistogramOptions& options);
  TimeWeightedGauge* time_weighted(const std::string& name);

  /// Attaches a help string to `name`, emitted as a `# HELP` line in the
  /// Prometheus export (with `\` and newlines escaped per the exposition
  /// format). May be called before or after the metric is registered.
  void SetHelp(const std::string& name, const std::string& help);

  /// Attaches a constant label to `name`, emitted on every sample line of
  /// that metric (value escaped per the exposition format). Labels set
  /// before registration are kept, like SetHelp.
  void SetLabel(const std::string& name, const std::string& key,
                const std::string& value);

  /// Lookup without creation; null if absent or of a different kind.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const HistogramMetric* FindHistogram(const std::string& name) const;
  const TimeWeightedGauge* FindTimeWeighted(const std::string& name) const;

  std::size_t size() const { return metrics_.size(); }

  /// All metrics, flattened, in name order.
  std::vector<MetricSample> Snapshot() const;

  /// Prometheus text exposition (counters/gauges as-is, histograms as
  /// summaries with quantile labels, time-weighted gauges as _avg/_max).
  std::string ToPrometheusText() const;

  /// Snapshot as CSV text (header + one row per metric).
  std::string ToCsvText() const;

  /// Writes ToCsvText() to `path`.
  Status WriteCsv(const std::string& path) const;

  /// Folds `other`'s metrics into this registry (the sweep engine's
  /// post-barrier combine — see docs/OBSERVABILITY.md). Per kind:
  /// counters add, gauges take `other`'s value (last-writer-wins, so
  /// merging per-task registries in task order is deterministic),
  /// histograms merge bucket-wise, time-weighted gauges add durations.
  /// Metrics only in `other` are created here. A name present in both
  /// with different kinds — or histograms with different bucket layouts —
  /// is skipped and counted in the return value.
  std::size_t Merge(const MetricsRegistry& other);

  /// Drops every metric (handles become dangling; re-resolve after).
  void Clear() { metrics_.clear(); }

 private:
  struct Entry {
    // Exactly one of these is set, according to `kind`.
    std::string kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    std::unique_ptr<TimeWeightedGauge> time_weighted;
  };

  std::map<std::string, Entry> metrics_;
  // Annotation maps are kept separate from metrics_ so SetHelp/SetLabel
  // on a not-yet-registered name never creates a phantom metric.
  std::map<std::string, std::string> help_;
  std::map<std::string, std::map<std::string, std::string>> labels_;
};

// Null-tolerant update helpers: the instrumentation idiom is to resolve
// handles once (null when telemetry is off) and call these in hot paths.
inline void Increment(Counter* c, double delta = 1.0) {
  if (c != nullptr) c->Increment(delta);
}
inline void Set(Gauge* g, double value) {
  if (g != nullptr) g->Set(value);
}
inline void Observe(HistogramMetric* h, double sample) {
  if (h != nullptr) h->Observe(sample);
}
inline void Update(TimeWeightedGauge* g, double now, double value) {
  if (g != nullptr) g->Update(now, value);
}

/// "server.disk.cycle_slack_ms" -> "server_disk_cycle_slack_ms": rewrites
/// the library's dotted names into the Prometheus grammar.
std::string PrometheusName(const std::string& name);

/// Escapes a HELP string per the text exposition format: `\` -> `\\`,
/// newline -> `\n`.
std::string PrometheusEscapeHelp(const std::string& text);

/// Escapes a label value per the text exposition format: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`.
std::string PrometheusEscapeLabelValue(const std::string& text);

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_METRICS_H_
