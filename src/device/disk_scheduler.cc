#include "device/disk_scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

namespace memstream::device {

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFcfs:
      return "FCFS";
    case SchedulerPolicy::kSstf:
      return "SSTF";
    case SchedulerPolicy::kScan:
      return "SCAN";
    case SchedulerPolicy::kCLook:
      return "C-LOOK";
  }
  return "?";
}

namespace {

void SstfOrderInto(std::int64_t head, const IoSpan* batch, std::size_t n,
                   std::size_t* order, std::size_t* remaining) {
  std::iota(remaining, remaining + n, std::size_t{0});
  std::size_t left = n;
  std::int64_t pos = head;
  for (std::size_t out = 0; out < n; ++out) {
    std::size_t best = 0;
    std::int64_t best_dist = std::llabs(batch[remaining[0]].offset - pos);
    for (std::size_t j = 1; j < left; ++j) {
      const std::int64_t dist = std::llabs(batch[remaining[j]].offset - pos);
      if (dist < best_dist) {
        best = j;
        best_dist = dist;
      }
    }
    pos = batch[remaining[best]].offset;
    order[out] = remaining[best];
    // Shift-erase keeps the scan order of the survivors, matching the
    // vector::erase the original implementation used (ties break the
    // same way).
    for (std::size_t j = best + 1; j < left; ++j) {
      remaining[j - 1] = remaining[j];
    }
    --left;
  }
}

void ScanOrderInto(std::int64_t head, const IoSpan* batch, std::size_t n,
                   bool circular, std::size_t* order, std::size_t* scratch) {
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
  // Split into requests at/above the head (serviced on the upward sweep)
  // and below it.
  std::size_t out = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (batch[scratch[j]].offset >= head) order[out++] = scratch[j];
  }
  if (circular) {
    // C-LOOK: jump back to the lowest pending offset, sweep up again.
    for (std::size_t j = 0; j < n; ++j) {
      if (batch[scratch[j]].offset < head) order[out++] = scratch[j];
    }
  } else {
    // SCAN: reverse direction and sweep down.
    for (std::size_t j = n; j-- > 0;) {
      if (batch[scratch[j]].offset < head) order[out++] = scratch[j];
    }
  }
}

}  // namespace

void ScheduleOrderInto(SchedulerPolicy policy, std::int64_t head_offset,
                       const IoSpan* batch, std::size_t n,
                       std::size_t* order, std::size_t* scratch) {
  switch (policy) {
    case SchedulerPolicy::kFcfs:
      std::iota(order, order + n, std::size_t{0});
      return;
    case SchedulerPolicy::kSstf:
      SstfOrderInto(head_offset, batch, n, order, scratch);
      return;
    case SchedulerPolicy::kScan:
      ScanOrderInto(head_offset, batch, n, /*circular=*/false, order,
                    scratch);
      return;
    case SchedulerPolicy::kCLook:
      ScanOrderInto(head_offset, batch, n, /*circular=*/true, order,
                    scratch);
      return;
  }
}

std::vector<std::size_t> ScheduleOrder(SchedulerPolicy policy,
                                       std::int64_t head_offset,
                                       const std::vector<IoSpan>& batch) {
  std::vector<std::size_t> order(batch.size());
  std::vector<std::size_t> scratch(batch.size());
  ScheduleOrderInto(policy, head_offset, batch.data(), batch.size(),
                    order.data(), scratch.data());
  return order;
}

Result<Seconds> ServiceBatch(BlockDevice& device, SchedulerPolicy policy,
                             std::int64_t head_offset,
                             const std::vector<IoSpan>& batch, Rng* rng) {
  Seconds total = 0;
  for (std::size_t idx : ScheduleOrder(policy, head_offset, batch)) {
    auto t = device.Service(batch[idx], rng);
    MEMSTREAM_RETURN_IF_ERROR(t.status());
    total += t.value();
  }
  return total;
}

}  // namespace memstream::device
