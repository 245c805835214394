#include "device/disk_scheduler.h"

#include <algorithm>
#include <numeric>

namespace memstream::device {

void ScheduleOrderInto(std::int64_t head_offset, const IoSpan* batch,
                       std::size_t n, std::size_t* order,
                       std::size_t* scratch) {
  std::iota(scratch, scratch + n, std::size_t{0});
  // Streams laid out at ascending offsets with one shared cursor step
  // hand over batches already in offset order; for those the sorted
  // permutation below is the identity, so skip the sort.
  const bool ordered = std::is_sorted(
      batch, batch + n, [](const IoSpan& a, const IoSpan& b) {
        return a.offset < b.offset;
      });
  if (!ordered) {
    // Equal offsets tie-break on the index, which reproduces
    // stable_sort's order over the iota input without its temporary
    // merge buffer — the cycle engines call this once per cycle and must
    // stay allocation-free.
    std::sort(scratch, scratch + n, [&](std::size_t a, std::size_t b) {
      const std::int64_t oa = batch[a].offset;
      const std::int64_t ob = batch[b].offset;
      return oa != ob ? oa < ob : a < b;
    });
  }
  // The upward sweep serves requests at/above the head; then jump back
  // to the lowest pending offset and sweep up again.
  std::size_t out = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (batch[scratch[j]].offset >= head_offset) order[out++] = scratch[j];
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (batch[scratch[j]].offset < head_offset) order[out++] = scratch[j];
  }
}

std::vector<std::size_t> ScheduleOrder(std::int64_t head_offset,
                                       const std::vector<IoSpan>& batch) {
  std::vector<std::size_t> order(batch.size());
  std::vector<std::size_t> scratch(batch.size());
  ScheduleOrderInto(head_offset, batch.data(), batch.size(), order.data(),
                    scratch.data());
  return order;
}

}  // namespace memstream::device
