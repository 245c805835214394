#include "model/cost.h"

namespace memstream::model {

Dollars CostWithMemsBufferPerByte(std::int64_t n, Bytes mems_bytes_used,
                                  Bytes s_mems_dram,
                                  const CostInputs& prices) {
  return prices.mems_per_byte * mems_bytes_used +
         static_cast<double>(n) * prices.dram_per_byte * s_mems_dram;
}

double PercentReduction(Dollars before, Dollars after) {
  if (before <= 0) return 0;
  return 100.0 * (before - after) / before;
}

}  // namespace memstream::model
