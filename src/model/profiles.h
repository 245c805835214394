// DeviceProfile: the analytic view of a device — the (R_d, L̄_d) pair the
// paper's formulas consume — plus adapters from the mechanical device
// models. The paper's convention (§5): disk IOs use the
// scheduler-determined (elevator) average latency; MEMS IOs are charged
// the maximum device latency "to minimize the mis-prediction of
// seek-access characteristics".

#ifndef MEMSTREAM_MODEL_PROFILES_H_
#define MEMSTREAM_MODEL_PROFILES_H_

#include <cstdint>
#include <functional>

#include "common/units.h"
#include "device/disk.h"
#include "device/mems_device.h"

namespace memstream::model {

/// Scalar device characteristics consumed by the analytical formulas.
struct DeviceProfile {
  BytesPerSecond rate = 0;        ///< R_d: media transfer rate [B/s]
  Seconds latency = 0;            ///< L̄_d: per-IO access latency [s]
  Bytes capacity = 0;             ///< per-device capacity [B]
  Dollars cost_per_device = 0;    ///< entry cost (per-device price model)
  DollarsPerByte cost_per_byte = 0;  ///< unit cost (per-byte price model)
};

/// Latency as a function of the number of concurrently scheduled streams
/// (the disk's elevator latency improves with deeper batches).
using LatencyFn = std::function<Seconds(std::int64_t n)>;

/// Disk profile charging the elevator latency for batches of `n` streams.
DeviceProfile DiskProfile(const device::DiskDrive& disk, std::int64_t n);

/// Like DiskProfile but with the inner-zone (minimum) transfer rate, so
/// sizing stays safe wherever data lands on a zoned disk. The analytical
/// benches follow the paper and use the maximum rate; the simulating
/// facade uses this conservative profile.
DeviceProfile DiskProfileConservative(const device::DiskDrive& disk,
                                      std::int64_t n);

/// LatencyFn wrapping DiskDrive::SchedulerDeterminedLatency.
LatencyFn DiskLatencyFn(const device::DiskDrive& disk);

/// MEMS profile charging the maximum device latency (paper §5).
DeviceProfile MemsProfileMaxLatency(const device::MemsDevice& mems);

/// The bank-level profile implied by Corollary 2 (round-robin buffer) and
/// Corollary 4 (replicated cache): k x rate, latency / k. Capacity
/// aggregates except under replication, where it stays per-device.
DeviceProfile ScaledBankProfile(const DeviceProfile& single, std::int64_t k,
                                bool replicated_capacity);

}  // namespace memstream::model

#endif  // MEMSTREAM_MODEL_PROFILES_H_
