#include "obs/slo.h"

#include <algorithm>
#include <cmath>

#include "obs/json_writer.h"

namespace memstream::obs {

Slo::Slo(SloSpec spec) : spec_(std::move(spec)) {
  spec_.objective = std::clamp(spec_.objective, 1e-9, 1.0 - 1e-9);
  if (!(spec_.window_seconds > 0)) spec_.window_seconds = 60.0;
}

void Slo::Record(double now, std::int64_t good, std::int64_t bad) {
  if (good <= 0 && bad <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  good_ += std::max<std::int64_t>(good, 0);
  bad_ += std::max<std::int64_t>(bad, 0);
  const double bucket_width =
      spec_.window_seconds / static_cast<double>(kBuckets);
  const std::int64_t index =
      static_cast<std::int64_t>(std::floor(now / bucket_width));
  Bucket& b = ring_[static_cast<std::size_t>(
      ((index % static_cast<std::int64_t>(kBuckets)) +
       static_cast<std::int64_t>(kBuckets)) %
      static_cast<std::int64_t>(kBuckets))];
  if (b.index != index) {
    b.index = index;
    b.good = 0;
    b.bad = 0;
  }
  b.good += std::max<std::int64_t>(good, 0);
  b.bad += std::max<std::int64_t>(bad, 0);
  latest_bucket_ = std::max(latest_bucket_, index);
}

double Slo::attainment() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t total = good_ + bad_;
  if (total == 0) return 1.0;
  return static_cast<double>(good_) / static_cast<double>(total);
}

double Slo::budget_remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t total = good_ + bad_;
  if (total == 0) return 1.0;
  const double error_rate =
      static_cast<double>(bad_) / static_cast<double>(total);
  return 1.0 - error_rate / (1.0 - spec_.objective);
}

double Slo::WindowErrorRateLocked() const {
  // Buckets older than the window (index below latest-kBuckets+1) are
  // stale leftovers from a previous lap of the ring; skip them.
  std::int64_t good = 0;
  std::int64_t bad = 0;
  const std::int64_t oldest =
      latest_bucket_ - static_cast<std::int64_t>(kBuckets) + 1;
  for (const Bucket& b : ring_) {
    if (b.index < 0 || b.index < oldest) continue;
    good += b.good;
    bad += b.bad;
  }
  const std::int64_t total = good + bad;
  if (total == 0) return 0.0;
  return static_cast<double>(bad) / static_cast<double>(total);
}

double Slo::burn_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowErrorRateLocked() / (1.0 - spec_.objective);
}

bool Slo::exhausted() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (bad_ == 0) return false;
  const std::int64_t total = good_ + bad_;
  const double error_rate =
      static_cast<double>(bad_) / static_cast<double>(total);
  return error_rate >= (1.0 - spec_.objective);
}

std::int64_t Slo::good() const {
  std::lock_guard<std::mutex> lock(mu_);
  return good_;
}

std::int64_t Slo::bad() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bad_;
}

Slo* SloMonitor::Add(const SloSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slo& s : slos_) {
    if (s.spec().name == spec.name) return &s;
  }
  slos_.emplace_back(spec);
  return &slos_.back();
}

Slo* SloMonitor::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slo& s : slos_) {
    if (s.spec().name == name) return &s;
  }
  return nullptr;
}

const Slo* SloMonitor::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slo& s : slos_) {
    if (s.spec().name == name) return &s;
  }
  return nullptr;
}

std::size_t SloMonitor::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slos_.size();
}

std::string SloMonitor::StatusJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

void SloMonitor::WriteJson(JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  bool all_healthy = true;
  for (const Slo& s : slos_) {
    if (s.exhausted()) all_healthy = false;
  }
  w->BeginObject();
  w->Key("healthy");
  w->Bool(all_healthy);
  w->Key("slos");
  w->BeginArray();
  for (const Slo& s : slos_) {
    w->BeginObject();
    w->Key("name");
    w->String(s.spec().name);
    w->Key("description");
    w->String(s.spec().description);
    w->Key("objective");
    w->Number(s.spec().objective);
    w->Key("window_seconds");
    w->Number(s.spec().window_seconds);
    w->Key("good");
    w->Int(s.good());
    w->Key("bad");
    w->Int(s.bad());
    w->Key("attainment");
    w->Number(s.attainment());
    w->Key("budget_remaining");
    w->Number(s.budget_remaining());
    w->Key("burn_rate");
    w->Number(s.burn_rate());
    w->Key("exhausted");
    w->Bool(s.exhausted());
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void SloMonitor::PublishGauges(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slo& s : slos_) {
    const std::string base = "slo." + s.spec().name;
    metrics->gauge(base + ".attainment")->Set(s.attainment());
    metrics->gauge(base + ".budget_remaining")->Set(s.budget_remaining());
    metrics->gauge(base + ".burn_rate")->Set(s.burn_rate());
    if (!s.spec().description.empty()) {
      metrics->SetHelp(base + ".attainment", s.spec().description);
    }
  }
}

std::vector<const Slo*> SloMonitor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Slo*> out;
  out.reserve(slos_.size());
  for (const Slo& s : slos_) out.push_back(&s);
  return out;
}

SloSpec StandardUnderflowSlo() {
  SloSpec spec;
  spec.name = "underflow";
  spec.description =
      "Stream-cycles completing without a playout buffer underflow";
  spec.objective = 0.999;
  spec.window_seconds = 60.0;
  return spec;
}

SloSpec StandardCycleSlackSlo() {
  SloSpec spec;
  spec.name = "cycle_slack";
  spec.description =
      "IO cycles finishing within their period (non-negative slack)";
  spec.objective = 0.999;
  spec.window_seconds = 60.0;
  return spec;
}

SloSpec StandardAdmissionLatencySlo() {
  SloSpec spec;
  spec.name = "admission_latency";
  spec.description = "Admission decisions returned within 200us wall time";
  spec.objective = 0.99;
  spec.window_seconds = 60.0;
  spec.threshold = 200e-6;
  return spec;
}

SloSpec StandardAvailabilitySlo() {
  SloSpec spec;
  spec.name = "availability";
  spec.description =
      "Stream-cycles in service (not shed) while faults are injected";
  spec.objective = 0.995;
  spec.window_seconds = 60.0;
  return spec;
}

}  // namespace memstream::obs
