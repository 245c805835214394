#include "obs/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/csv_writer.h"
#include "common/profiler.h"

namespace memstream::obs {

namespace {

constexpr char kCounterKind[] = "counter";
constexpr char kGaugeKind[] = "gauge";
constexpr char kHistogramKind[] = "histogram";
constexpr char kTimeWeightedKind[] = "time_weighted";

std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// One RFC 4180 CSV line -> cells (quoted cells, "" escapes).
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && quoted && i + 1 < line.size() && line[i + 1] == '"') {
      cells.back().push_back(line[++i]);
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      cells.emplace_back();
    } else if (c != '\r' || quoted) {
      cells.back().push_back(c);
    }
  }
  return cells;
}

/// The number in `cell`; 0 when it is not one or, as a count, does not
/// fit an int64.
double CsvNumber(const std::string& cell, bool count) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  const bool ok = end != cell.c_str() && (!count || std::abs(v) < 9.2e18);
  return ok ? v : 0;
}

}  // namespace

std::vector<MetricSample> ParseMetricsCsv(const std::string& text) {
  std::vector<MetricSample> rows;
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::vector<std::string> c = SplitCsvLine(line);
    if (c.size() < 10) continue;
    MetricSample s;
    s.name = c[0];
    s.kind = c[1];
    s.value = CsvNumber(c[2], false);
    s.count = static_cast<std::int64_t>(CsvNumber(c[3], true));
    s.min = CsvNumber(c[4], false);
    s.max = CsvNumber(c[5], false);
    s.mean = CsvNumber(c[6], false);
    s.p50 = CsvNumber(c[7], false);
    s.p95 = CsvNumber(c[8], false);
    s.p99 = CsvNumber(c[9], false);
    rows.push_back(std::move(s));
  }
  return rows;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  Entry& e = metrics_[name];
  if (e.kind.empty()) {
    e.kind = kCounterKind;
    e.counter = std::make_unique<Counter>();
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  Entry& e = metrics_[name];
  if (e.kind.empty()) {
    e.kind = kGaugeKind;
    e.gauge = std::make_unique<Gauge>();
  }
  return e.gauge.get();
}

HistogramMetric* MetricsRegistry::histogram(const std::string& name,
                                            const HistogramOptions& options) {
  Entry& e = metrics_[name];
  if (e.kind.empty()) {
    e.kind = kHistogramKind;
    e.histogram = std::make_unique<HistogramMetric>(options.lo, options.hi,
                                                    options.buckets);
  }
  return e.histogram.get();
}

TimeWeightedGauge* MetricsRegistry::time_weighted(const std::string& name) {
  Entry& e = metrics_[name];
  if (e.kind.empty()) {
    e.kind = kTimeWeightedKind;
    e.time_weighted = std::make_unique<TimeWeightedGauge>();
  }
  return e.time_weighted.get();
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  help_[name] = help;
}

void MetricsRegistry::SetLabel(const std::string& name, const std::string& key,
                               const std::string& value) {
  labels_[name][key] = value;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.counter.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.gauge.get();
}

const HistogramMetric* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.histogram.get();
}

const TimeWeightedGauge* MetricsRegistry::FindTimeWeighted(
    const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.time_weighted.get();
}

std::size_t MetricsRegistry::Merge(const MetricsRegistry& other) {
  std::size_t skipped = 0;
  for (const auto& [name, theirs] : other.metrics_) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      // Clone the metric wholesale; merging into nothing is a copy.
      Entry fresh;
      fresh.kind = theirs.kind;
      if (theirs.counter != nullptr) {
        fresh.counter = std::make_unique<Counter>(*theirs.counter);
      } else if (theirs.gauge != nullptr) {
        fresh.gauge = std::make_unique<Gauge>(*theirs.gauge);
      } else if (theirs.histogram != nullptr) {
        fresh.histogram = std::make_unique<HistogramMetric>(*theirs.histogram);
      } else if (theirs.time_weighted != nullptr) {
        fresh.time_weighted =
            std::make_unique<TimeWeightedGauge>(*theirs.time_weighted);
      }
      metrics_.emplace(name, std::move(fresh));
      continue;
    }
    Entry& mine = it->second;
    if (mine.kind != theirs.kind) {
      ++skipped;
      continue;
    }
    if (mine.counter != nullptr && theirs.counter != nullptr) {
      mine.counter->Increment(theirs.counter->value());
    } else if (mine.gauge != nullptr && theirs.gauge != nullptr) {
      mine.gauge->Set(theirs.gauge->value());
    } else if (mine.histogram != nullptr && theirs.histogram != nullptr) {
      if (!mine.histogram->Merge(*theirs.histogram)) ++skipped;
    } else if (mine.time_weighted != nullptr &&
               theirs.time_weighted != nullptr) {
      mine.time_weighted->Merge(*theirs.time_weighted);
    }
  }
  return skipped;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSample s;
    s.name = name;
    s.kind = entry.kind;
    if (entry.counter != nullptr) {
      s.value = entry.counter->value();
      s.count = 1;
    } else if (entry.gauge != nullptr) {
      s.value = entry.gauge->value();
      s.count = 1;
    } else if (entry.histogram != nullptr) {
      const auto& h = entry.histogram->histogram();
      const auto& st = h.stats();
      s.count = st.count();
      s.min = st.min();
      s.max = st.max();
      s.mean = st.mean();
      s.value = st.mean();
      s.p50 = h.Quantile(0.50);
      s.p95 = h.Quantile(0.95);
      s.p99 = h.Quantile(0.99);
    } else if (entry.time_weighted != nullptr) {
      const auto& st = entry.time_weighted->stats();
      s.value = st.TimeAverage();
      s.mean = st.TimeAverage();
      s.max = st.max_value();
      s.count = 1;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string PrometheusName(const std::string& name) {
  // Sanitizing maps digits to themselves, so the raw first character
  // decides the leading underscore; writing it first avoids shifting the
  // string in place.
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out.push_back('_');
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string PrometheusEscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string PrometheusEscapeLabelValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  PROF_SCOPE("obs.metrics.export");
  std::ostringstream out;
  for (const auto& [name, entry] : metrics_) {
    const std::string prom = PrometheusName(name);

    // Constant labels, rendered once per metric. Keys go through
    // PrometheusName (the grammar allows no escaping in label names);
    // values are escaped per the exposition format.
    std::string label_body;  // `k1="v1",k2="v2"` without braces
    if (auto it = labels_.find(name); it != labels_.end()) {
      for (const auto& [k, v] : it->second) {
        if (!label_body.empty()) label_body += ",";
        label_body +=
            PrometheusName(k) + "=\"" + PrometheusEscapeLabelValue(v) + "\"";
      }
    }
    const std::string labels =
        label_body.empty() ? std::string() : "{" + label_body + "}";

    if (auto it = help_.find(name); it != help_.end() && !it->second.empty()) {
      out << "# HELP " << prom << " " << PrometheusEscapeHelp(it->second)
          << "\n";
    }
    if (entry.counter != nullptr) {
      out << "# TYPE " << prom << " counter\n";
      out << prom << labels << " " << FormatDouble(entry.counter->value())
          << "\n";
    } else if (entry.gauge != nullptr) {
      out << "# TYPE " << prom << " gauge\n";
      out << prom << labels << " " << FormatDouble(entry.gauge->value())
          << "\n";
    } else if (entry.histogram != nullptr) {
      const auto& h = entry.histogram->histogram();
      const auto& st = h.stats();
      out << "# TYPE " << prom << " summary\n";
      for (double q : {0.5, 0.95, 0.99}) {
        out << prom << "{"
            << (label_body.empty() ? std::string() : label_body + ",")
            << "quantile=\"" << FormatDouble(q) << "\"} "
            << FormatDouble(h.Quantile(q)) << "\n";
      }
      out << prom << "_sum" << labels << " " << FormatDouble(st.sum()) << "\n";
      out << prom << "_count" << labels << " " << st.count() << "\n";
    } else if (entry.time_weighted != nullptr) {
      const auto& st = entry.time_weighted->stats();
      out << "# TYPE " << prom << "_avg gauge\n";
      out << prom << "_avg" << labels << " " << FormatDouble(st.TimeAverage())
          << "\n";
      out << "# TYPE " << prom << "_max gauge\n";
      out << prom << "_max" << labels << " " << FormatDouble(st.max_value())
          << "\n";
    }
  }
  return out.str();
}

std::string MetricsRegistry::ToCsvText() const {
  PROF_SCOPE("obs.metrics.export");
  std::ostringstream out;
  out << "name,kind,value,count,min,max,mean,p50,p95,p99\n";
  for (const auto& s : Snapshot()) {
    out << CsvEscape(s.name) << "," << s.kind << "," << FormatDouble(s.value)
        << "," << s.count << "," << FormatDouble(s.min) << ","
        << FormatDouble(s.max) << "," << FormatDouble(s.mean) << ","
        << FormatDouble(s.p50) << "," << FormatDouble(s.p95) << ","
        << FormatDouble(s.p99) << "\n";
  }
  return out.str();
}

Status MetricsRegistry::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  out << ToCsvText();
  out.close();
  if (!out.good()) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

}  // namespace memstream::obs
