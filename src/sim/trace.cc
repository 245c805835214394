#include "sim/trace.h"

#include <algorithm>
#include <sstream>

namespace memstream::sim {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kCycleStart:
      return "cycle-start";
    case TraceKind::kCycleEnd:
      return "cycle-end";
    case TraceKind::kIoIssued:
      return "io-issued";
    case TraceKind::kIoCompleted:
      return "io-completed";
    case TraceKind::kUnderflow:
      return "underflow";
    case TraceKind::kOverflow:
      return "overflow";
    case TraceKind::kBufferLevel:
      return "buffer-level";
    case TraceKind::kNote:
      return "note";
    case TraceKind::kFaultStart:
      return "fault-start";
    case TraceKind::kFaultEnd:
      return "fault-end";
  }
  return "?";
}

void TraceLog::SetCapacity(std::size_t capacity) {
  // Unwrap so the oldest record sits at index 0, then evict from the
  // front down to the new limit.
  std::rotate(ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(head_),
              ring_.end());
  head_ = 0;
  capacity_ = capacity;
  if (capacity_ > 0 && ring_.size() > capacity_) {
    const std::size_t evict = ring_.size() - capacity_;
    ring_.erase(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(evict));
    dropped_ += static_cast<std::int64_t>(evict);
  }
}

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

std::string TraceLog::ToString(std::size_t max_records) const {
  std::ostringstream out;
  std::size_t emitted = 0;
  for (const auto& r : records()) {
    if (emitted++ >= max_records) {
      out << "... (" << ring_.size() - max_records << " more)\n";
      break;
    }
    out << r.time << " " << TraceKindName(r.kind) << " " << r.actor;
    if (r.stream_id >= 0) out << " stream=" << r.stream_id;
    if (r.bytes > 0) out << " bytes=" << r.bytes;
    if (!r.detail.empty()) out << " " << r.detail;
    out << "\n";
  }
  return out.str();
}

}  // namespace memstream::sim
