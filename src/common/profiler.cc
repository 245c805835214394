#include "common/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace memstream::prof {

namespace internal {

ThreadState::ThreadState() : nodes(new Node[kMaxNodes]) {
  nodes[kRoot].name = "";
  nodes[kRoot].parent = kNone;
}

}  // namespace internal

using internal::ThreadState;

void Profiler::Enable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_.load(std::memory_order_relaxed) != 0) return;
  ++epoch_;
  enabled_.store(epoch_, std::memory_order_release);
}

void Profiler::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(0, std::memory_order_release);
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  states_.clear();
  // Bump the epoch so cached thread-local pointers into the dropped
  // tables are revalidated (and re-registered) on the next scope.
  ++epoch_;
  if (enabled_.load(std::memory_order_relaxed) != 0) {
    enabled_.store(epoch_, std::memory_order_release);
  }
}

std::int64_t Profiler::NowNs() {
  const ClockFn fn = Global().clock_.load(std::memory_order_acquire);
  if (fn != nullptr) return fn();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::SetClockForTesting(ClockFn fn) {
  clock_.store(fn, std::memory_order_release);
}

void Profiler::SetAllocCounter(AllocCounterFn fn) {
  alloc_counter_.store(fn, std::memory_order_release);
}

ThreadState* Profiler::CurrentThreadState() {
  const std::uint64_t word = enabled_.load(std::memory_order_acquire);
  if (word == 0) return nullptr;
  thread_local ThreadState* cached = nullptr;
  thread_local std::uint64_t cached_epoch = 0;
  if (cached_epoch == word && cached != nullptr) return cached;
  std::lock_guard<std::mutex> lock(mu_);
  auto state = std::make_unique<ThreadState>();
  cached = state.get();
  cached_epoch = word;
  states_.push_back(std::move(state));
  return cached;
}

std::uint32_t Profiler::FindOrCreateNode(ThreadState* ts, const char* name) {
  internal::ThreadState::Node* nodes = ts->nodes.get();
  const std::uint32_t parent = ts->current;
  for (std::uint32_t c = nodes[parent].first_child;
       c != ThreadState::kNone; c = nodes[c].next_sibling) {
    // Pointer equality first: literals usually dedupe within a binary.
    if (nodes[c].name == name || std::strcmp(nodes[c].name, name) == 0) {
      return c;
    }
  }
  // New region under this parent: rare, so the registry mutex (which
  // also serializes Snapshot() traversals) is acceptable here.
  std::lock_guard<std::mutex> lock(mu_);
  if (ts->node_count >= ThreadState::kMaxNodes) return ThreadState::kNone;
  const std::uint32_t idx = ts->node_count;
  internal::ThreadState::Node& n = nodes[idx];
  n.name = name;
  n.parent = parent;
  n.next_sibling = nodes[parent].first_child;
  ts->node_count = idx + 1;
  nodes[parent].first_child = idx;
  return idx;
}

void ProfScope::Enter(const char* name) {
  ThreadState* ts = ts_;
  if (ts->overflow > 0) {
    // An ancestor was dropped; attaching this region to the grandparent
    // would misattribute its time, so drop it too (still counted).
    ++ts->overflow;
    ts->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint32_t node = Profiler::Global().FindOrCreateNode(ts, name);
  if (node == ThreadState::kNone) {
    ts->overflow = 1;
    ts->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  node_ = node;
  ts->current = node;
  alloc_fn_ = Profiler::Global().alloc_counter();
  if (alloc_fn_ != nullptr) start_allocs_ = alloc_fn_();
  start_ns_ = Profiler::NowNs();
}

void ProfScope::Exit() {
  ThreadState* ts = ts_;
  if (node_ == ThreadState::kNone) {
    --ts->overflow;
    return;
  }
  const std::int64_t elapsed = Profiler::NowNs() - start_ns_;
  internal::ThreadState::Node& n = ts->nodes[node_];
  n.count.fetch_add(1, std::memory_order_relaxed);
  n.inclusive_ns.fetch_add(elapsed, std::memory_order_relaxed);
  if (alloc_fn_ != nullptr) {
    n.alloc_delta.fetch_add(alloc_fn_() - start_allocs_,
                            std::memory_order_relaxed);
  }
  ts->current = n.parent;
}

namespace {

/// Folds one per-thread subtree into the merged children vector, which
/// is kept sorted by name so the merge is order-independent.
void MergeInto(const internal::ThreadState::Node* nodes, std::uint32_t idx,
               std::vector<ProfileNode>* out) {
  for (std::uint32_t c = nodes[idx].first_child;
       c != ThreadState::kNone; c = nodes[c].next_sibling) {
    const char* name = nodes[c].name;
    auto it = std::lower_bound(
        out->begin(), out->end(), name,
        [](const ProfileNode& n, const char* key) { return n.name < key; });
    if (it == out->end() || it->name != name) {
      ProfileNode fresh;
      fresh.name = name;
      it = out->insert(it, std::move(fresh));
    }
    it->count += nodes[c].count.load(std::memory_order_relaxed);
    it->inclusive_ns +=
        nodes[c].inclusive_ns.load(std::memory_order_relaxed);
    it->alloc_delta +=
        nodes[c].alloc_delta.load(std::memory_order_relaxed);
    MergeInto(nodes, c, &it->children);
  }
}

void ComputeExclusive(ProfileNode* node) {
  std::int64_t child_sum = 0;
  for (auto& c : node->children) {
    ComputeExclusive(&c);
    child_sum += c.inclusive_ns;
  }
  node->exclusive_ns = std::max<std::int64_t>(0, node->inclusive_ns -
                                                     child_sum);
}

void AppendCollapsed(const ProfileNode& node, const std::string& prefix,
                     std::string* out) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  if (node.exclusive_ns > 0) {
    out->append(path);
    out->push_back(' ');
    out->append(std::to_string(node.exclusive_ns));
    out->push_back('\n');
  }
  for (const auto& c : node.children) AppendCollapsed(c, path, out);
}

}  // namespace

ProfileSnapshot Profiler::Snapshot() const {
  ProfileSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& state : states_) {
    MergeInto(state->nodes.get(), ThreadState::kRoot, &snap.roots);
    snap.dropped_samples +=
        state->dropped.load(std::memory_order_relaxed);
  }
  snap.threads = static_cast<int>(states_.size());
  for (auto& r : snap.roots) ComputeExclusive(&r);
  return snap;
}

std::int64_t Profiler::dropped_samples() const {
  std::int64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& state : states_) {
    total += state->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::int64_t ProfileSnapshot::total_inclusive_ns() const {
  std::int64_t total = 0;
  for (const auto& r : roots) total += r.inclusive_ns;
  return total;
}

std::string CollapsedStackText(const ProfileSnapshot& snapshot) {
  std::string out;
  for (const auto& r : snapshot.roots) AppendCollapsed(r, "", &out);
  return out;
}

namespace {

void DumpAtExit() {
  Profiler& profiler = Profiler::Global();
  if (!profiler.enabled()) return;
  const ProfileSnapshot snap = profiler.Snapshot();
  const char* env_out = std::getenv("MEMSTREAM_PROFILE_OUT");
  const std::string path = env_out != nullptr ? env_out : "profile.folded";
  if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    const std::string text = CollapsedStackText(snap);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  std::fprintf(stderr,
               "profiler: %d thread(s), %.3f ms inclusive, %lld dropped "
               "sample(s) -> %s\n",
               snap.threads,
               static_cast<double>(snap.total_inclusive_ns()) / 1e6,
               static_cast<long long>(snap.dropped_samples), path.c_str());
}

/// MEMSTREAM_PROFILE=1 in the environment enables the profiler for any
/// binary (benches, tools, tests) without code changes and dumps a
/// collapsed-stack profile at exit.
struct EnvInit {
  EnvInit() {
    const char* v = std::getenv("MEMSTREAM_PROFILE");
    if (v == nullptr || v[0] == '\0' ||
        (v[0] == '0' && v[1] == '\0')) {
      return;
    }
    Profiler::Global().Enable();
    std::atexit(DumpAtExit);
  }
};
const EnvInit g_env_init;

}  // namespace

}  // namespace memstream::prof
