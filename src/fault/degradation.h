// Graceful degradation: re-solves the paper's admission analytics online
// when a fault changes the hardware the plan was sized against, and
// decides what the server should do about it.
//
// The healthy plan comes from Theorems 3/4 (Eqs. 5-8 specialised to the
// cache): k devices of rate Rm sustain n cache streams with per-stream
// buffer CachePerStreamBuffer(n, B̄, k, mems, policy) and MEMS cycle
// T_mems = S/B̄. A device failure shrinks k, so the manager re-runs the
// same formulas with the k' devices still alive and picks the cheapest
// repair, in order:
//
//  1. reshape — the degraded bank still sustains all n streams; only the
//     cycle length and buffer sizing change (Theorem 4's k becomes k').
//  2. shed — drop the fewest streams m so that CacheCanSustain(n - m)
//     holds again (highest stream indices first, deterministically);
//     shed streams are re-admitted when a repair restores feasibility.
//  3. disk fallback — a striped bank that lost a device has no content
//     at all (every stripe needs all k devices, Corollary 3), so cache
//     streams with a disk-resident copy move to the Theorem 1 disk path
//     while the disk has headroom; the rest are shed until the device
//     returns and the stripes are refilled (refill_delay).
//
// The manager is pure: Replan() maps the observed degraded state to a
// CacheReplan decision; the server applies it (and the FaultInjector
// ledgers it). That keeps the policy unit-testable without a simulator.

#ifndef MEMSTREAM_FAULT_DEGRADATION_H_
#define MEMSTREAM_FAULT_DEGRADATION_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "model/incremental.h"
#include "model/mems_cache.h"
#include "model/profiles.h"

namespace memstream::fault {

/// What the server should degrade to. Filled by DegradationManager.
struct CacheReplan {
  /// False only when even one stream cannot be served anywhere.
  bool feasible = false;
  /// True when the cache path is unusable (striped bank lost a device,
  /// or every device failed) — retained is then 0.
  bool cache_down = false;
  std::int64_t retained = 0;   ///< cache streams kept on the MEMS path
  std::int64_t to_disk = 0;    ///< cache streams moved to the disk path
  std::int64_t shed = 0;       ///< cache streams shed entirely
  Seconds mems_cycle = 0;      ///< new T_mems for retained streams
  Seconds disk_cycle = 0;      ///< new T_disk when to_disk > 0, else 0
  Bytes per_stream_buffer = 0; ///< new DRAM sizing for retained streams
  std::string action;          ///< human summary for the fault timeline

  bool operator==(const CacheReplan&) const = default;
};

/// Healthy-plan inputs. The cache-down disk fallback needs disk.rate > 0.
struct DegradationConfig {
  model::CachePolicy policy = model::CachePolicy::kReplicated;
  std::int64_t k = 1;              ///< healthy bank size
  BytesPerSecond bit_rate = 0;     ///< common stream rate B̄
  model::DeviceProfile mems;       ///< healthy single-device profile
  model::DeviceProfile disk;       ///< disk profile (fallback feasibility)
  std::int64_t n_disk = 0;         ///< streams already on the disk path
  std::int64_t n_cache = 0;        ///< streams admitted to the cache path
  /// Striped refill: after a repair the stripes must be rebuilt from disk
  /// before cache service resumes; re-admission waits this long.
  Seconds refill_delay = 0;
};

/// Policy object: the durable state lives in the server + injector; the
/// manager itself only carries incremental re-solve memos. Fault/repair
/// sequences revisit the same alive-device counts over and over, so
/// Replan() and MaxSustainable() cache their outcome per count and a
/// revisit skips the full re-derivation (cross-checked against the full
/// solver in debug builds). The memos are not synchronized: a manager
/// must not be shared by concurrently running servers.
class DegradationManager {
 public:
  /// Validates the configuration.
  static Result<DegradationManager> Create(const DegradationConfig& config);

  const DegradationConfig& config() const { return config_; }

  /// Decides the degraded plan for the observed bank state: `alive`
  /// devices still serving. A healthy bank (alive = k) returns a
  /// full-strength reshape (retained = n_cache, original sizing).
  const CacheReplan& Replan(std::int64_t alive) const;

  /// Largest stream count `alive` devices sustain with a valid
  /// Theorem 3/4 sizing (bandwidth and buffer both finite).
  std::int64_t MaxSustainable(std::int64_t alive) const;

  /// True when the disk path can absorb `extra` more streams on top of
  /// config().n_disk (Theorem 1 bandwidth bound).
  bool DiskCanAbsorb(std::int64_t extra) const;

  /// Re-solve memo accounting (hits/misses/cross-check mismatches).
  const model::SolveMemoStats& replan_stats() const {
    return replan_memo_.stats();
  }
  /// Forces (or disables) the hit-time cross-check against the full
  /// solver; defaults to on in debug builds only.
  void set_cross_check(bool on) const {
    replan_memo_.set_cross_check(on);
    sustain_memo_.set_cross_check(on);
  }

 private:
  explicit DegradationManager(const DegradationConfig& config)
      : config_(config) {}

  CacheReplan ReplanFull(std::int64_t alive) const;
  std::int64_t MaxSustainableFull(std::int64_t alive) const;

  DegradationConfig config_;
  mutable model::SolveMemo<CacheReplan> replan_memo_;
  mutable model::SolveMemo<std::int64_t> sustain_memo_;
};

}  // namespace memstream::fault

#endif  // MEMSTREAM_FAULT_DEGRADATION_H_
