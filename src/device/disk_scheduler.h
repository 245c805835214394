// The disk's IO-queue order. Every server collects one request per
// stream each cycle and sweeps the batch with one elevator, C-LOOK: up
// from the head, then back to the lowest pending offset and up again.
// The paper's evaluation uses elevator scheduling on the disk (§5: "The
// disk IO scheduler uses elevator scheduling to optimize for disk
// utilization"), and the scheduler-determined latency L̄ the sizing
// charges assumes such a sweep.

#ifndef MEMSTREAM_DEVICE_DISK_SCHEDULER_H_
#define MEMSTREAM_DEVICE_DISK_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "device/device.h"

namespace memstream::device {

/// Returns the C-LOOK service order (indices into `batch`) starting from
/// byte offset `head_offset`. The batch is not modified.
std::vector<std::size_t> ScheduleOrder(std::int64_t head_offset,
                                       const std::vector<IoSpan>& batch);

/// Allocation-free variant for the batched cycle engine: writes the
/// service order of `batch[0..n)` into `order[0..n)` using
/// `scratch[0..n)` as working space (both caller-provided, typically
/// arena-backed). Produces exactly the order ScheduleOrder returns.
void ScheduleOrderInto(std::int64_t head_offset, const IoSpan* batch,
                       std::size_t n, std::size_t* order,
                       std::size_t* scratch);

}  // namespace memstream::device

#endif  // MEMSTREAM_DEVICE_DISK_SCHEDULER_H_
