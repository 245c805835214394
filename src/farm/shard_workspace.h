// One shard-epoch of the sharded farm (farm/sharded_farm.h): a shard's
// constant resident set served by a direct time-cycle server for one
// epoch. Every sweep thread builds its shard-epochs in one reused
// ShardWorkspace: the node disk, the stream specs, the QoS auditor and
// the server are reset in place, so a warm workspace allocates nothing
// for a shard no larger than one it has already run. A row depends only
// on the farm config and the ShardEpochTask, never on which workspace
// ran it or what ran there before, which keeps the farm's merged report
// byte-identical at any thread count.

#ifndef MEMSTREAM_FARM_SHARD_WORKSPACE_H_
#define MEMSTREAM_FARM_SHARD_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "device/disk.h"
#include "farm/sharded_farm.h"
#include "obs/qos_auditor.h"
#include "server/timecycle_server.h"

namespace memstream::farm {

/// Per-stream activity of one epoch, collected only on request (the
/// farm asks when a journal is attached).
struct StreamEpoch {
  std::int64_t id = 0;
  std::int64_t ios = 0;
  Bytes bytes = 0;
  Bytes peak = 0;
  std::int64_t underflows = 0;

  bool operator==(const StreamEpoch&) const = default;
};

/// What one shard did during one epoch (the farm's sweep task row).
struct ShardEpoch {
  bool ran = false;
  std::string error;  ///< non-empty = the task failed
  std::int64_t streams = 0;
  std::int64_t cycles = 0;
  std::int64_t ios = 0;
  std::int64_t overruns = 0;
  std::int64_t underflows = 0;
  std::int64_t violations = 0;
  Bytes peak_dram = 0;
  Seconds busy = 0;
  std::vector<StreamEpoch> per_stream;

  bool operator==(const ShardEpoch&) const = default;
};

/// One shard-epoch to run.
struct ShardEpochTask {
  std::span<const std::int32_t> ids;  ///< the shard's residents, ascending
  Seconds length = 0;                 ///< the epoch's length
  std::uint64_t seed = 0;             ///< the server's seed
  bool per_stream = false;            ///< fill ShardEpoch::per_stream
};

/// The reusable state one sweep thread builds shard-epochs in, bound to
/// one farm config.
class ShardWorkspace {
 public:
  /// `config` must outlive the workspace.
  explicit ShardWorkspace(const ShardedFarmConfig& config)
      : config_(&config) {}
  ShardWorkspace(const ShardWorkspace&) = delete;
  ShardWorkspace& operator=(const ShardWorkspace&) = delete;

  /// Serves `task.ids` on one node for `task.length` seconds. An empty
  /// shard does not run.
  ShardEpoch Run(const ShardEpochTask& task);

  /// Builds the shard state for `ids` without running it, so the
  /// buffers are sized on the calling thread.
  void Prepare(std::span<const std::int32_t> ids);

 private:
  /// Resets the node, specs, auditor and server for `task`; sets the
  /// shard's IO cycle.
  Status Build(const ShardEpochTask& task, Seconds* t_cycle);

  const ShardedFarmConfig* config_;
  std::optional<device::DiskDrive> disk_;  ///< created on first use
  std::vector<server::StreamSpec> specs_;
  obs::QosAuditor auditor_;
  /// Reset in place for every shard-epoch; its lanes bind to its own
  /// address, so the workspace never moves.
  server::DirectStreamingServer server_;
};

/// The farm's workspaces: each shard task checks one out for its
/// duration, and one more is created only if all are out.
class ShardWorkspacePool {
 public:
  /// Creates `count` workspaces on the calling thread and prepares each
  /// for the resident set `largest`. Their buffers then come from this
  /// thread's heap, not from whichever sweep thread first grows them:
  /// glibc gives every thread its own arena, and workspace memory spread
  /// over the arenas raised `farm_zipf`'s peak RSS from ~23 MB to a
  /// run-dependent 25–27 MB.
  ShardWorkspacePool(const ShardedFarmConfig& config, int count,
                     std::span<const std::int32_t> largest);

  /// Returns its workspace to the pool when destroyed.
  class Lease {
   public:
    Lease(ShardWorkspacePool* pool, ShardWorkspace* ws)
        : pool_(pool), ws_(ws) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { pool_->Return(ws_); }
    ShardWorkspace* operator->() const { return ws_; }

   private:
    ShardWorkspacePool* pool_;
    ShardWorkspace* ws_;
  };

  Lease Checkout();

 private:
  void Return(ShardWorkspace* ws);

  const ShardedFarmConfig* config_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ShardWorkspace>> all_;
  std::vector<ShardWorkspace*> free_;
};

}  // namespace memstream::farm

#endif  // MEMSTREAM_FARM_SHARD_WORKSPACE_H_
