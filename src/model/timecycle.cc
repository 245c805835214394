#include "model/timecycle.h"

#include <cmath>

#include "common/math_utils.h"
#include "model/incremental.h"

namespace memstream::model {

bool CanSustain(std::int64_t n, BytesPerSecond bit_rate,
                const DeviceProfile& dev) {
  return n >= 0 && dev.rate > static_cast<double>(n) * bit_rate;
}

std::int64_t MaxStreamsBandwidthBound(BytesPerSecond device_rate,
                                      BytesPerSecond bit_rate) {
  if (bit_rate <= 0 || device_rate <= 0) return 0;
  const double ratio = device_rate / bit_rate;
  auto n = static_cast<std::int64_t>(std::ceil(ratio)) - 1;
  // Guard the exact-divisibility case: need strictly R > n * B̄.
  while (n > 0 && static_cast<double>(n) * bit_rate >= device_rate) --n;
  return n;
}

Result<Bytes> PerStreamBufferSize(std::int64_t n, BytesPerSecond bit_rate,
                                  const DeviceProfile& dev) {
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (bit_rate <= 0) return Status::InvalidArgument("bit_rate must be > 0");
  if (dev.rate <= 0 || dev.latency < 0) {
    return Status::InvalidArgument("device profile not positive");
  }
  if (!CanSustain(n, bit_rate, dev)) {
    return Status::Infeasible("device rate <= n * bit_rate (Theorem 1)");
  }
  const double nn = static_cast<double>(n);
  return nn * dev.latency * dev.rate * bit_rate / (dev.rate - nn * bit_rate);
}

Result<Bytes> TotalBufferSize(std::int64_t n, BytesPerSecond bit_rate,
                              const DeviceProfile& dev) {
  auto s = PerStreamBufferSize(n, bit_rate, dev);
  MEMSTREAM_RETURN_IF_ERROR(s.status());
  return static_cast<double>(n) * s.value();
}

Result<Seconds> IoCycleLength(std::int64_t n, BytesPerSecond bit_rate,
                              const DeviceProfile& dev) {
  auto s = PerStreamBufferSize(n, bit_rate, dev);
  MEMSTREAM_RETURN_IF_ERROR(s.status());
  return s.value() / bit_rate;
}

std::int64_t MaxStreamsWithBuffer(Bytes buffer_budget,
                                  BytesPerSecond bit_rate,
                                  BytesPerSecond device_rate,
                                  const LatencyFn& latency_of_n) {
  if (buffer_budget <= 0 || bit_rate <= 0 || device_rate <= 0) return 0;
  const std::int64_t hard_cap =
      MaxStreamsBandwidthBound(device_rate, bit_rate);
  if (hard_cap < 1) return 0;

  // Probe kernel instead of TotalBufferSize: the binary search hits the
  // infeasible side on about half its probes, and each such Result would
  // heap-allocate its Infeasible message.
  auto fits = [&](std::int64_t n) {
    const double total =
        ProbeTheorem1Total(n, bit_rate, device_rate, latency_of_n(n));
    return !std::isnan(total) && total <= buffer_budget;
  };
  const std::int64_t best = LargestTrueInline(fits, 1, hard_cap);
  return best >= 1 ? best : 0;
}

}  // namespace memstream::model
