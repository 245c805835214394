// In-memory span recorder for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer's public functions
// in a span: name, start, end, parent span and workload. Hot per-call
// boundaries (one admission decision, one release) would produce millions
// of spans, so the caller times those itself and adds them as tallies: a
// call count and the summed duration, attributed to the span that was
// open around them. Nothing is written until the run ends; WriteJson then
// dumps every span with its self time (its duration minus the part of it
// that child spans and tallies cover).
//
// A null recorder is the untraced run: ScopedSpan does nothing, not even
// read the clock.

#ifndef MEMSTREAM_PERFBENCH_SPANS_H_
#define MEMSTREAM_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace memstream::perfbench {

/// Monotonic nanoseconds.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    const char* name = nullptr;  ///< string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;     ///< 0 while open
    int parent = kNoParent;
    std::int64_t tally_ns = 0;   ///< tally time recorded directly under it
  };

  struct Tally {
    std::int64_t calls = 0;
    std::int64_t ns = 0;
  };

  explicit SpanRecorder(std::string workload)
      : workload_(std::move(workload)), origin_ns_(NowNs()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span and returns its id. Thread-safe.
  int Begin(const char* name, int parent);
  /// Closes span `id`. Thread-safe.
  void End(int id);
  /// Adds `calls` calls taking `ns` in total to tally `name`, under the
  /// open span `parent`. Thread-safe.
  void AddTally(const char* name, int parent, std::int64_t calls,
                std::int64_t ns);

  // Read-side accessors; call once every span is closed.

  /// Summed duration of every span named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Summed self time of every span named `name`, in seconds.
  double SelfSeconds(const std::string& name) const;
  const Tally& tally(const std::string& name) const;

  /// Writes {"workload", "spans": [...], "tallies": {...}} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  /// Per-span self time: duration minus the union of its children's
  /// intervals (clipped to the span) minus its tally time.
  std::vector<std::int64_t> SelfNs() const;

  const std::string workload_;
  const std::int64_t origin_ns_;
  mutable std::mutex mu_;  ///< guards spans_ and tallies_
  std::vector<Span> spans_;
  std::map<std::string, Tally> tallies_;
};

/// RAII span. Nests under the span the calling thread has open, or
/// under `parent` when given (work fanned out to pool threads).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             int parent = SpanRecorder::kNoParent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_ = SpanRecorder::kNoParent;
  int saved_current_ = SpanRecorder::kNoParent;
};

}  // namespace memstream::perfbench

#endif  // MEMSTREAM_PERFBENCH_SPANS_H_
