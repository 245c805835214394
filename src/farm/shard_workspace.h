// One shard-epoch of the sharded farm (farm/sharded_farm.h): a shard's
// constant resident set served by a direct time-cycle server for one
// epoch. Every node is the same disk, every stream has the one bit rate
// and the server is deterministic, so a row is a pure function of the
// resident count and the epoch length: the workspace labels its streams
// 0..n-1, and the farm runs each distinct count once per epoch and maps
// the labels to each shard's own stream ids. Every sweep thread builds
// its shard-epochs in one reused ShardWorkspace: the node disk, the
// stream specs, the QoS auditor and the server are reset in place, so a
// warm workspace allocates nothing for a shard no larger than one it has
// already run. A row never depends on which workspace ran it or what ran
// there before, which keeps the farm's merged report byte-identical at
// any thread count.

#ifndef MEMSTREAM_FARM_SHARD_WORKSPACE_H_
#define MEMSTREAM_FARM_SHARD_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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
  std::int64_t id = 0;  ///< the stream's index in the shard, 0..n-1
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

/// One shard-epoch to run: everything its row depends on.
struct ShardEpochTask {
  std::int64_t streams = 0;  ///< the shard's resident count
  Seconds length = 0;        ///< the epoch's length
  bool per_stream = false;   ///< fill ShardEpoch::per_stream
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

  /// Serves `task.streams` streams on one node for `task.length`
  /// seconds. An empty shard does not run.
  ShardEpoch Run(const ShardEpochTask& task);

  /// Builds the shard state for `streams` streams without running it,
  /// so the buffers are sized on the calling thread.
  void Prepare(std::int64_t streams);

 private:
  /// Resets the node, specs, auditor and server for `task`; sets the
  /// shard's IO cycle.
  Status Build(const ShardEpochTask& task, Seconds* t_cycle);

  const ShardedFarmConfig* config_;
  std::optional<device::DiskDrive> disk_;  ///< created on first use
  std::vector<server::StreamSpec> specs_;
  std::vector<std::int32_t> labels_;  ///< 0, 1, 2, ...: the auditor's ids
  obs::QosAuditor auditor_;
  /// Reset in place for every shard-epoch; its lanes bind to its own
  /// address, so the workspace never moves.
  server::DirectStreamingServer server_;
};

/// The farm's workspaces: each shard-epoch task checks one out for its
/// duration, and one more is created only if all are out.
class ShardWorkspacePool {
 public:
  /// Creates `count` workspaces on the calling thread and prepares each
  /// for `largest` residents. Their buffers then come from this
  /// thread's heap, not from whichever sweep thread first grows them:
  /// glibc gives every thread its own arena, and workspace memory spread
  /// over the arenas raised `farm_zipf`'s peak RSS from ~23 MB to a
  /// run-dependent 25–27 MB.
  ShardWorkspacePool(const ShardedFarmConfig& config, int count,
                     std::int64_t largest);

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
