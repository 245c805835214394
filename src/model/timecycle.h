// Time-cycle-based IO scheduling model (Rangan et al. 1992), as used by
// the paper for every device: in each IO cycle the device performs exactly
// one IO per stream, sized so no stream underflows before its next IO.
//
// Theorem 1 (disk -> DRAM) and Corollary 1 (MEMS -> DRAM): the minimum
// per-stream buffer satisfying the real-time requirement is
//
//   S = N * L̄_d * R_d * B̄ / (R_d - N * B̄),    valid when R_d > N * B̄.
//
// Derivation (also the invariant the tests check): the cycle must cover N
// IOs, T = N * (L̄_d + S / R_d), while each stream consumes exactly one
// IO per cycle, S = B̄ * T; solving the fixed point gives the formula.

#ifndef MEMSTREAM_MODEL_TIMECYCLE_H_
#define MEMSTREAM_MODEL_TIMECYCLE_H_

#include <cstdint>

#include "common/status.h"
#include "model/profiles.h"

namespace memstream::model {

/// True when the device has the raw bandwidth for n streams (R > n * B̄),
/// the necessary condition of Theorem 1.
bool CanSustain(std::int64_t n, BytesPerSecond bit_rate,
                const DeviceProfile& dev);

/// Largest n with dev.rate > n * bit_rate (bandwidth bound only; the DRAM
/// requirement diverges as n approaches it).
std::int64_t MaxStreamsBandwidthBound(BytesPerSecond device_rate,
                                      BytesPerSecond bit_rate);

/// Theorem 1 / Corollary 1: minimum per-stream buffer (bytes).
/// Returns Infeasible when R_d <= n * B̄.
Result<Bytes> PerStreamBufferSize(std::int64_t n, BytesPerSecond bit_rate,
                                  const DeviceProfile& dev);

/// n * PerStreamBufferSize: the system-wide DRAM requirement (Fig. 6a).
Result<Bytes> TotalBufferSize(std::int64_t n, BytesPerSecond bit_rate,
                              const DeviceProfile& dev);

/// The IO cycle T implied by Theorem 1's sizing: T = S / B̄
/// (equivalently N * (L̄_d + S/R_d)).
Result<Seconds> IoCycleLength(std::int64_t n, BytesPerSecond bit_rate,
                              const DeviceProfile& dev);

/// Inverse use of Theorem 1: the largest n sustainable from `dev` when
/// the total buffer must fit in `buffer_budget` bytes. `latency_of_n`
/// supplies L̄_d for each candidate n (elevator latency improves with n);
/// pass a constant function for a fixed latency. Returns 0 if even one
/// stream does not fit.
std::int64_t MaxStreamsWithBuffer(Bytes buffer_budget,
                                  BytesPerSecond bit_rate,
                                  BytesPerSecond device_rate,
                                  const LatencyFn& latency_of_n);

}  // namespace memstream::model

#endif  // MEMSTREAM_MODEL_TIMECYCLE_H_
