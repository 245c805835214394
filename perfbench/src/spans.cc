#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/json_writer.h"

namespace memstream::perfbench {
namespace {

thread_local int current_span = SpanRecorder::kNoParent;

double ToSeconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

int SpanRecorder::Begin(const char* name, int parent) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = now;
  span.parent = parent;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

void SpanRecorder::AddTally(const char* name, int parent, std::int64_t calls,
                            std::int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Tally& t = tallies_[name];
  t.calls += calls;
  t.ns += ns;
  if (parent != kNoParent) {
    spans_[static_cast<std::size_t>(parent)].tally_ns += ns;
  }
}

std::vector<std::int64_t> SpanRecorder::SelfNs() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals clipped to the parent: children that
    // ran in parallel on pool threads overlap and count once.
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t a = std::max(lo, reach);
      const std::int64_t b = std::min(hi, s.end_ns);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, s.end_ns));
    }
    self[i] = std::max<std::int64_t>(
        0, s.end_ns - s.start_ns - covered - s.tally_ns);
  }
  return self;
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return ToSeconds(ns);
}

double SpanRecorder::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::int64_t> self = SelfNs();
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) ns += self[i];
  }
  return ToSeconds(ns);
}

const SpanRecorder::Tally& SpanRecorder::tally(const std::string& name) const {
  static const Tally kEmpty;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tallies_.find(name);
  return it == tallies_.end() ? kEmpty : it->second;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::int64_t> self = SelfNs();
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(workload_);
  w.Key("spans");
  w.BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("id");
    w.Int(static_cast<std::int64_t>(i));
    w.Key("name");
    w.String(s.name);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("workload");
    w.String(workload_);
    w.Key("start_s");
    w.Number(ToSeconds(s.start_ns - origin_ns_));
    w.Key("end_s");
    w.Number(ToSeconds(s.end_ns - origin_ns_));
    w.Key("self_s");
    w.Number(ToSeconds(self[i]));
    w.EndObject();
  }
  w.EndArray();
  w.Key("tallies");
  w.BeginObject();
  for (const auto& [name, t] : tallies_) {
    w.Key(name);
    w.BeginObject();
    w.Key("calls");
    w.Int(t.calls);
    w.Key("total_s");
    w.Number(ToSeconds(t.ns));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name, int parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->Begin(name, parent != SpanRecorder::kNoParent
                                   ? parent
                                   : current_span);
  saved_current_ = current_span;
  current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->End(id_);
  current_span = saved_current_;
}

}  // namespace memstream::perfbench
