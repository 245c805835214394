// Disk -> MEMS -> DRAM pipeline server (§3.1, Figs. 4 and 5): every byte
// read from the disk is first written to a bank of k MEMS devices and
// later read into DRAM, with two nested time cycles:
//
//  - the disk cycle (length T_disk): one disk IO of B̄ * T_disk per stream,
//    elevator-ordered; each completion is queued as a pending write on the
//    stream's MEMS device (streams are assigned round-robin, stream i ->
//    device i mod k, preserving large disk-side IOs per §3.1.2);
//  - the per-device MEMS cycle (length T_mems = M/N * T_disk): the device
//    drains its pending disk writes and performs one DRAM transfer of
//    B̄ * T_mems for each assigned stream whose data is resident.
//
// Each device lays its assigned streams out in contiguous slots and all
// transfers are serviced through the kinematic sled model, so the actual
// positioning costs are at most the worst-case latency the analytical
// sizing (Theorem 2) charges — the simulation validates that sizing.

#ifndef MEMSTREAM_SERVER_MEMS_PIPELINE_SERVER_H_
#define MEMSTREAM_SERVER_MEMS_PIPELINE_SERVER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "device/disk.h"
#include "device/mems_device.h"
#include "model/mems_buffer.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "server/server_core.h"
#include "server/telemetry.h"
#include "sim/fifo_lane.h"

namespace memstream::server {

/// Knobs of the pipeline server. Obtain t_disk / t_mems from
/// model::SolveMemsBuffer (use t_mems_snapped) with the matching
/// placement.
struct MemsPipelineConfig {
  Seconds t_disk = 1.0;
  Seconds t_mems = 0.1;
  /// §3.1.2 placement: round-robin (the paper's choice) routes each disk
  /// IO whole to one device; striped splits every IO across all k
  /// devices in lock-step (implemented so the rejected design can be
  /// executed and compared, not just modeled).
  model::BufferPlacement placement =
      model::BufferPlacement::kRoundRobinStreams;
  bool deterministic = true;  ///< expected rotational delay on the disk
  std::uint64_t seed = 42;
  /// Optional sinks. Register the auditor's streams in spec order,
  /// domain kDisk: MEMS-side reads are legally partial through drain
  /// jitter, so only the disk cycle's one-IO-per-stream invariant is
  /// byte-checked. The journal holds each stream under the Theorem-2
  /// envelope (2 * B * T_mems). A fault plan stops a failed device until
  /// its repair (its streams starve: the pipeline has no degradation
  /// manager). The "cycle_slack" SLO takes disk and MEMS cycle outcomes;
  /// "underflow" is scanned once per disk cycle.
  Sinks sinks;
};

/// The pipeline server. Owns the MEMS bank; the disk is borrowed.
class MemsPipelineServer final : public ServerCore {
 public:
  /// Validates capacity: each device must fit, per assigned stream, two
  /// disk IOs plus one DRAM IO of buffered data (the executable analogue
  /// of condition (7)).
  static Result<MemsPipelineServer> Create(
      device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
      std::vector<StreamSpec> streams, const MemsPipelineConfig& config);

  std::size_t num_streams() const { return play_.size(); }
  std::size_t bank_size() const { return bank_.size(); }

 private:
  MemsPipelineServer(device::DiskDrive* disk,
                     std::vector<device::MemsDevice> bank,
                     std::vector<StreamSpec> streams,
                     const MemsPipelineConfig& config);

  Status StartRun(Seconds duration) override;
  void CloseRun() override;
  /// Device faults act directly on the bank: fail makes Service() return
  /// Unavailable until the paired repair.
  void ApplyFaultEvent(const fault::FaultEvent& e) override;
  void RunDiskCycle(Seconds deadline);
  void RunMemsCycle(std::size_t dev, Seconds deadline);
  /// Striped placement: one lock-step cycle drives all k devices.
  void RunStripedMemsCycle(Seconds deadline);
  /// The body of both: device `device`'s cycle, or the striped bank's
  /// for -1.
  void MemsCycle(std::int64_t device, Seconds deadline);

  struct PendingWrite {
    std::size_t stream;
    Bytes bytes;
  };
  /// A device's disk writes awaiting their MEMS cycle, FIFO. Unlike
  /// std::deque, it keeps its storage as it drains, so the steady-state
  /// push/pop cycle allocates nothing.
  struct PendingQueue {
    std::vector<PendingWrite> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    void Push(PendingWrite w) {
      if (head > 0 && head * 2 >= items.size()) {
        // Reclaim the consumed prefix in place.
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      items.push_back(w);
    }
    PendingWrite Pop() { return items[head++]; }
  };

  /// A disk IO completion (the write joins its MEMS device's pending
  /// queue) or, when traced, the disk cycle-end marker.
  struct DiskCompletion {
    enum Kind : std::uint8_t { kIo, kCycleEnd };
    Kind kind = kIo;
    std::size_t stream = 0;
    Bytes bytes = 0;
    Seconds service = 0;  ///< IO service time; cycle busy for kCycleEnd
  };
  /// A MEMS op completion: a disk->MEMS write becoming resident, a
  /// MEMS->DRAM read depositing into the stream's buffer, or, when
  /// traced, the device's cycle-end marker. Striped cycles use dev 0.
  struct MemsCompletion {
    enum Kind : std::uint8_t { kWrite, kRead, kCycleEnd };
    Kind kind = kWrite;
    std::size_t dev = 0;
    std::size_t stream = 0;
    Bytes bytes = 0;
    Seconds service = 0;   ///< op service time; cycle busy for kCycleEnd
    Seconds boundary = 0;  ///< playback may start from here (reads)
  };
  /// The single places a completion takes effect, at its done time (the
  /// simulator clock), including its trace records.
  void ApplyDiskCompletion(const DiskCompletion& c);
  void ApplyMemsCompletion(const MemsCompletion& c);

  std::vector<StreamSpec> streams_;
  MemsPipelineConfig config_;
  // Per-stream pipeline state, structure-of-arrays (hot cycle loops walk
  // one array at a time).
  std::vector<std::size_t> device_;       ///< assigned MEMS device
  std::vector<Bytes> slot_base_;          ///< slot start on the device
  std::vector<Bytes> slot_size_;
  std::vector<Bytes> write_cursor_;       ///< within the slot
  std::vector<Bytes> read_cursor_;
  std::vector<Bytes> resident_;           ///< on MEMS, written and unread
  std::vector<Bytes> read_deficit_;       ///< shortfall from partial reads,
                                          ///< repaid by catch-up reads
  std::vector<std::uint8_t> first_write_done_;
  std::vector<PendingQueue> pending_;               ///< per device
  std::vector<Bytes> occupancy_;                    ///< per device
  std::vector<Bytes> play_cursor_;                  ///< disk-side cursor
  sim::FifoLane<DiskCompletion> disk_lane_;
  /// One lane per MEMS device (one for the striped lock-step cycle):
  /// each device's completions are in time order, the bank's are not.
  std::vector<sim::FifoLane<MemsCompletion>> mems_lanes_;
  std::vector<obs::TimeWeightedGauge*> mems_occupancy_;  ///< per device
  std::vector<obs::TimelineSeries*> mems_series_;        ///< per device
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_MEMS_PIPELINE_SERVER_H_
