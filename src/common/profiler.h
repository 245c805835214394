// In-process hierarchical profiler: allocation-free RAII scopes
// (PROF_SCOPE("sim.cycle.io")) aggregated per thread into a tree of
// (inclusive ns, call count, optional alloc delta) keyed by the region
// name path, then merged deterministically across threads on export.
//
// Design rules:
//  - The hot path is lock-free and allocation-free: entering a scope is
//    one atomic load (the global enabled word), a walk over the parent's
//    child list (region fan-out is small), and one clock read; leaving
//    is one clock read plus relaxed atomic adds. When the profiler is
//    disabled the whole scope is one atomic load and one branch — the
//    runtime null-sink path.
//  - Region names must be string literals (or otherwise outlive the
//    profiler); nodes store the pointer and compare by pointer first,
//    falling back to strcmp so duplicated literals across translation
//    units merge.
//  - Per-thread node tables are fixed-capacity and preallocated on a
//    thread's first scope; when the table fills, further new regions are
//    counted in dropped_samples() instead of recorded — truncation is
//    never silent (see obs::WarnDroppedTelemetry).
//  - Node counters are relaxed atomics and structural mutation happens
//    under the registry mutex, so Snapshot() may run concurrently with
//    live instrumented threads and stays clean under TSan. Counter
//    triples read mid-update may be slightly inconsistent; totals are
//    exact once writers pause.
//  - Building with -DMEMSTREAM_PROFILE=OFF (which defines
//    MEMSTREAM_PROFILE_ENABLED=0) compiles PROF_SCOPE to nothing:
//    exactly zero code at every instrumentation site.
//
// The profiler is a process-wide singleton. Setting the environment
// variable MEMSTREAM_PROFILE=1 enables it at startup and dumps a
// collapsed-stack profile (flamegraph.pl-ready) at exit to
// $MEMSTREAM_PROFILE_OUT (default ./profile.folded), so any bench or
// tool can be profiled without code changes.

#ifndef MEMSTREAM_COMMON_PROFILER_H_
#define MEMSTREAM_COMMON_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef MEMSTREAM_PROFILE_ENABLED
#define MEMSTREAM_PROFILE_ENABLED 1
#endif

namespace memstream::prof {

/// One merged region in a profile snapshot. exclusive_ns is inclusive_ns
/// minus the children's inclusive time (clamped at zero: concurrent
/// updates can transiently make children sum past the parent).
struct ProfileNode {
  std::string name;
  std::int64_t count = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t exclusive_ns = 0;
  std::int64_t alloc_delta = 0;  ///< allocations inside the region (0 when
                                 ///< no alloc counter is installed)
  std::vector<ProfileNode> children;  ///< sorted by name
};

/// Deterministic cross-thread merge of everything recorded so far.
struct ProfileSnapshot {
  std::vector<ProfileNode> roots;  ///< sorted by name
  std::int64_t dropped_samples = 0;
  int threads = 0;  ///< thread states merged

  /// Sum of the roots' inclusive time.
  std::int64_t total_inclusive_ns() const;
};

namespace internal {

/// Per-thread region table. Single-writer (the owning thread); snapshot
/// readers take the registry mutex, which also serializes node creation.
struct ThreadState {
  static constexpr std::uint32_t kMaxNodes = 4096;
  static constexpr std::uint32_t kRoot = 0;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Node {
    const char* name = nullptr;
    std::uint32_t parent = kNone;
    std::uint32_t first_child = kNone;
    std::uint32_t next_sibling = kNone;
    std::atomic<std::int64_t> count{0};
    std::atomic<std::int64_t> inclusive_ns{0};
    std::atomic<std::int64_t> alloc_delta{0};
  };

  ThreadState();

  std::unique_ptr<Node[]> nodes;  ///< kMaxNodes, node 0 is the root
  std::uint32_t node_count = 1;
  std::uint32_t current = kRoot;   ///< innermost open region
  std::uint32_t overflow = 0;      ///< open scopes dropped by a full table
  std::atomic<std::int64_t> dropped{0};
};

}  // namespace internal

/// Process-wide profiler singleton. See the file comment for the
/// threading and lifetime rules.
class Profiler {
 public:
  static Profiler& Global() {
    // Leaked singleton: instrumented scopes and the atexit dump may run
    // during static destruction, so the profiler must never be destroyed.
    static Profiler* const instance = new Profiler();
    return *instance;
  }

  /// Turns recording on. Scopes opened while disabled cost one atomic
  /// load; scopes opened while enabled accumulate into the tree.
  void Enable();
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_acquire) != 0;
  }

  /// Drops all recorded data and thread tables. Callers must guarantee
  /// no instrumented scope is open on any thread (tests and end-of-run
  /// paths only); live threads re-register on their next scope.
  void Reset();

  /// Merged tree across every thread that recorded since the last
  /// Reset(), children sorted by name — identical regardless of thread
  /// scheduling or registration order.
  ProfileSnapshot Snapshot() const;

  /// Scopes dropped because a thread's node table filled.
  std::int64_t dropped_samples() const;

  /// Clock override for deterministic tests; null restores the steady
  /// clock. The function must return monotonic nanoseconds.
  using ClockFn = std::int64_t (*)();
  void SetClockForTesting(ClockFn fn);

  /// Optional allocation counter (e.g. a counting operator new in the
  /// test binary). When installed, every region also records the number
  /// of allocations performed inside it. Null disables.
  using AllocCounterFn = std::int64_t (*)();
  void SetAllocCounter(AllocCounterFn fn);
  AllocCounterFn alloc_counter() const {
    return alloc_counter_.load(std::memory_order_acquire);
  }

  /// Monotonic nanoseconds via the installed clock.
  static std::int64_t NowNs();

  // -- internal, used by ProfScope ---------------------------------------

  /// The calling thread's table for the current epoch, registering it on
  /// first use; null when the profiler is disabled.
  internal::ThreadState* CurrentThreadState();

 private:
  Profiler() = default;

  mutable std::mutex mu_;  ///< guards states_ and node creation/linking
  std::vector<std::unique_ptr<internal::ThreadState>> states_;
  /// 0 = disabled; otherwise the current epoch. Thread-local cached
  /// states are revalidated against this word, so Reset() (which bumps
  /// the epoch) safely invalidates every thread's cache. Static and
  /// constant-initialized, so a disabled scope reads it inline without
  /// touching the singleton.
  static inline std::atomic<std::uint64_t> enabled_{0};
  std::uint64_t epoch_ = 0;
  std::atomic<ClockFn> clock_{nullptr};
  std::atomic<AllocCounterFn> alloc_counter_{nullptr};

  friend class ProfScope;
  std::uint32_t FindOrCreateNode(internal::ThreadState* ts,
                                 const char* name);
};

/// RAII region scope. Prefer the PROF_SCOPE macro, which compiles out
/// entirely under MEMSTREAM_PROFILE_ENABLED=0.
class ProfScope {
 public:
  explicit ProfScope(const char* name) {
    // Disabled: one load and a branch, the null sink.
    if (Profiler::enabled_.load(std::memory_order_acquire) == 0) return;
    internal::ThreadState* ts = Profiler::Global().CurrentThreadState();
    if (ts == nullptr) return;  // disabled since the check above
    ts_ = ts;
    Enter(name);
  }
  ~ProfScope() {
    if (ts_ != nullptr) Exit();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  void Enter(const char* name);
  void Exit();

  internal::ThreadState* ts_ = nullptr;
  std::uint32_t node_ = internal::ThreadState::kNone;
  std::int64_t start_ns_ = 0;
  std::int64_t start_allocs_ = 0;
  Profiler::AllocCounterFn alloc_fn_ = nullptr;
};

/// Flamegraph-ready collapsed-stack text: one "a;b;c <weight>" line per
/// region with nonzero exclusive time, weight in nanoseconds, lines in
/// deterministic (depth-first, name-sorted) order.
std::string CollapsedStackText(const ProfileSnapshot& snapshot);

}  // namespace memstream::prof

#if MEMSTREAM_PROFILE_ENABLED
#define MEMSTREAM_PROF_CAT2(a, b) a##b
#define MEMSTREAM_PROF_CAT(a, b) MEMSTREAM_PROF_CAT2(a, b)
/// Profiles the enclosing scope under `name` (a string literal).
#define PROF_SCOPE(name) \
  ::memstream::prof::ProfScope MEMSTREAM_PROF_CAT(prof_scope_, \
                                                  __LINE__)(name)
#else
#define PROF_SCOPE(name) ((void)0)
#endif

#endif  // MEMSTREAM_COMMON_PROFILER_H_
