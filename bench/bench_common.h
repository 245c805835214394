// Shared plumbing for the figure/table regenerators: canonical 2007
// devices, the latency-ratio knob of §5.1, CSV output placement, and the
// sweep-engine glue (smoke mode, the one-line sweep cost summary).
//
// Concurrency: the converted benches evaluate sweep points on a
// exp::SweepRunner pool, so everything here is either immutable after
// first use (function-local statics, thread-safe under C++ magic-static
// initialization) or returns an independent copy per call.

#ifndef MEMSTREAM_BENCH_BENCH_COMMON_H_
#define MEMSTREAM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/csv_writer.h"
#include "common/units.h"
#include "device/device_catalog.h"
#include "exp/sweep_runner.h"
#include "model/profiles.h"

namespace memstream::bench {

/// Directory (under the current working directory) where every bench
/// drops its CSV series. Created once per process, on first use.
inline const std::string& ResultsDir() {
  static const std::string dir = [] {
    std::filesystem::create_directories("bench_results");
    return std::string("bench_results");
  }();
  return dir;
}

inline std::string CsvPath(const std::string& name) {
  return ResultsDir() + "/" + name + ".csv";
}

/// True when MEMSTREAM_SMOKE is set: benches shrink their sweeps to a
/// seconds-long spot check (the bench-smoke ctest label runs every
/// binary this way under the sanitizer presets).
inline bool SmokeMode() {
  static const bool smoke = std::getenv("MEMSTREAM_SMOKE") != nullptr;
  return smoke;
}

/// Simulation horizon helper: the full duration normally, a short one in
/// smoke mode.
inline Seconds SmokeDuration(Seconds full, Seconds smoke) {
  return SmokeMode() ? smoke : full;
}

/// The FutureDisk as the paper's analysis sees it: a single 300 MB/s
/// transfer rate. Calibrated once; each call returns an independent copy
/// (DiskDrive carries mutable head state, so sweep tasks must not share
/// one instance).
inline device::DiskDrive AnalyticFutureDisk() {
  static const device::DiskDrive drive = [] {
    device::DiskParameters p = device::FutureDisk2007();
    p.inner_rate = p.outer_rate;
    return device::DiskDrive::Create(p).value();
  }();
  return drive;
}

/// The FutureDisk's average access latency (2.8 ms seek + 1.5 ms
/// rotation): the numerator of the §5.1 latency ratio. Memoized.
inline Seconds FutureDiskAverageLatency() {
  static const Seconds latency = AnalyticFutureDisk().AverageAccessLatency();
  return latency;
}

/// The disk IO latency charge used by the paper's cost evaluation
/// (§5.1.3 anchor: "the DRAM requirement for the 10MB/s bit-rate range
/// is approximately 1.5GB", which Theorem 1 yields at 29 streams only
/// for L̄_disk = average seek + one full rotation = 5.8 ms). The library's
/// elevator estimate (DiskLatencyFn) is tighter; the figure benches use
/// this conservative constant to reproduce the paper's magnitudes.
inline model::LatencyFn PaperConservativeDiskLatency() {
  static const Seconds charge = [] {
    const device::DiskDrive disk = AnalyticFutureDisk();
    return disk.seek_model().AverageSeekTime() + disk.RotationPeriod();
  }();
  return [](std::int64_t) { return charge; };
}

/// G3 MEMS profile whose max latency is derived from the latency ratio:
/// L̄_mems = L̄_disk(avg) / ratio. ratio = 5 reproduces the G3 device.
inline model::DeviceProfile MemsProfileAtRatio(double ratio) {
  static const model::DeviceProfile base = [] {
    auto dev = device::MemsDevice::Create(device::MemsG3()).value();
    return model::MemsProfileMaxLatency(dev);
  }();
  model::DeviceProfile p = base;
  p.latency = FutureDiskAverageLatency() / ratio;
  return p;
}

/// Echoes the runner's cumulative cost as a one-line stdout summary.
inline void PrintSweep(const exp::SweepRunner& runner) {
  const exp::SweepStats& stats = runner.stats();
  std::printf(
      "Sweep: %lld tasks on %d thread(s), %.3f s wall, %lld events "
      "(%.0f events/s)\n",
      static_cast<long long>(stats.tasks), stats.threads,
      stats.wall_seconds, static_cast<long long>(stats.events),
      stats.events_per_sec());
}

}  // namespace memstream::bench

#endif  // MEMSTREAM_BENCH_BENCH_COMMON_H_
