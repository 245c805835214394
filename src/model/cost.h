// Buffering-cost model (§4). The paper prices a configuration three
// ways; each lives where a bench computes it:
//  - Eq. 1 (DRAM only, N * C_dram * S_disk-dram) and Eq. 2 (k MEMS
//    devices charged whole plus the reduced DRAM buffer) are computed in
//    the fig7/fig8 benches from the Theorem 1 and 2 sizings;
//  - Eq. 9 (the cache: h*N streams buffered for MEMS service and
//    (1-h)*N for disk service) is priced by MaxCacheSystemThroughput in
//    planner.cc, which splits one budget into k devices and DRAM;
//  - the per-byte relaxation of Eq. 2 (only the MEMS bytes actually used
//    are charged), used by the Fig. 8 experiment and the T_disk
//    optimizer, is below.

#ifndef MEMSTREAM_MODEL_COST_H_
#define MEMSTREAM_MODEL_COST_H_

#include <cstdint>

#include "common/units.h"

namespace memstream::model {

/// Unit prices for the buffering media.
struct CostInputs {
  DollarsPerByte dram_per_byte = 20.0 / kGB;   ///< C_dram
  DollarsPerByte mems_per_byte = 1.0 / kGB;    ///< C_mems
};

/// Per-byte variant of Eq. 2 (Fig. 8): C_mems * mems_bytes_used +
/// N * C_dram * S_mems-dram.
Dollars CostWithMemsBufferPerByte(std::int64_t n, Bytes mems_bytes_used,
                                  Bytes s_mems_dram,
                                  const CostInputs& prices);

/// 100 * (before - after) / before; 0 when before == 0.
double PercentReduction(Dollars before, Dollars after);

}  // namespace memstream::model

#endif  // MEMSTREAM_MODEL_COST_H_
