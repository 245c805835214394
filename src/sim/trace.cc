#include "sim/trace.h"

namespace memstream::sim {

std::int64_t TraceLog::Count(TraceKind kind) const {
  std::int64_t count = 0;
  for (const auto& r : ring_) {
    if (r.kind == kind) ++count;
  }
  return count;
}

std::vector<TraceRecord> TraceLog::Filter(TraceKind kind) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records()) {
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

}  // namespace memstream::sim
