// Parallel experiment engine: fans independent (config -> row) sweep
// evaluations across a ThreadPool while keeping the output bit-identical
// to a serial run. The determinism contract (see docs/PERFORMANCE.md):
//
//  - Tasks are pure functions of (their input, their TaskContext). They
//    must not touch shared mutable state; shared inputs are read-only.
//  - Each task gets its own Rng, seeded as SplitMix64 of (base_seed,
//    task index) — independent of the thread that runs it and of how
//    many threads exist.
//  - Each task gets its own obs::MetricsRegistry; after the barrier the
//    per-task registries are merged into SweepOptions::metrics in task
//    order, so merged values match a serial run exactly.
//  - Map() collects rows by task index, so emission order (tables, CSV)
//    is the submission order regardless of completion order.
//
// Thread count resolution: SweepOptions::threads > 0 wins, else the
// MEMSTREAM_THREADS environment variable, else hardware concurrency.

#ifndef MEMSTREAM_EXP_SWEEP_RUNNER_H_
#define MEMSTREAM_EXP_SWEEP_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace memstream::exp {

struct SweepOptions {
  /// Worker threads; 0 = resolve via MEMSTREAM_THREADS / hardware.
  int threads = 0;
  /// Root of the per-task seed derivation.
  std::uint64_t base_seed = 0x9E3779B97F4A7C15ull;
  /// When set, per-task registries are merged here after each sweep.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What one sweep cost; accumulated across Map() calls on one runner and
/// printed as each bench's one-line "Sweep:" summary.
struct SweepStats {
  std::int64_t tasks = 0;
  int threads = 1;
  Seconds wall_seconds = 0;
  /// Task-reported work units (sim events, IOs, model evaluations).
  std::int64_t events = 0;
  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
};

/// Per-task execution context, valid for the duration of the task.
class TaskContext {
 public:
  TaskContext(std::int64_t index, std::uint64_t seed,
              obs::MetricsRegistry* metrics,
              std::atomic<std::int64_t>* events)
      : index_(index), seed_(seed), rng_(seed), metrics_(metrics),
        events_(events) {}

  std::int64_t index() const { return index_; }
  std::uint64_t seed() const { return seed_; }
  /// Deterministic per-task stream, identical at any thread count.
  Rng& rng() { return rng_; }
  /// Per-task registry (null when the sweep collects no metrics).
  obs::MetricsRegistry* metrics() { return metrics_; }
  /// Accounts `n` work units toward the sweep's events/sec figure.
  void AddEvents(std::int64_t n) {
    if (n > 0) events_->fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::int64_t index_;
  std::uint64_t seed_;
  Rng rng_;
  obs::MetricsRegistry* metrics_;
  std::atomic<std::int64_t>* events_;
};

/// Derives the task seed: SplitMix64 over base_seed advanced by index.
std::uint64_t TaskSeed(std::uint64_t base_seed, std::int64_t index);

/// Applies the resolution order documented above. `requested <= 0`
/// consults MEMSTREAM_THREADS, then hardware concurrency; result >= 1.
int ResolveThreadCount(int requested);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Evaluates fn(TaskContext&) for indices 0..n-1 in parallel and
  /// returns the results in index order. Row must be default
  /// constructible and movable. Byte-identical to the serial run as
  /// long as fn honors the determinism contract above.
  template <typename Fn>
  auto Map(std::int64_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::declval<TaskContext&>()))> {
    using Row = decltype(fn(std::declval<TaskContext&>()));
    std::vector<Row> rows(static_cast<std::size_t>(n > 0 ? n : 0));
    RunIndexed(n, [&rows, &fn](TaskContext& ctx) {
      rows[static_cast<std::size_t>(ctx.index())] = fn(ctx);
    });
    return rows;
  }

  /// Runs fn for indices 0..n-1 for its side effects on the TaskContext
  /// (metrics, events). fn must not write shared state.
  void ForEach(std::int64_t n,
               const std::function<void(TaskContext&)>& fn) {
    RunIndexed(n, fn);
  }

  /// Resolved worker count for this runner.
  int threads() const { return threads_; }

  /// Cumulative cost of every Map()/ForEach() on this runner so far.
  const SweepStats& stats() const { return stats_; }

 private:
  void RunIndexed(std::int64_t n,
                  const std::function<void(TaskContext&)>& body);

  SweepOptions options_;
  int threads_;
  SweepStats stats_;
  std::unique_ptr<class ThreadPool> pool_;
};

}  // namespace memstream::exp

#endif  // MEMSTREAM_EXP_SWEEP_RUNNER_H_
