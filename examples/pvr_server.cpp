// A "PVR" workload: the §3.1 write-stream extension in action. One disk
// simultaneously plays back n streams and records m incoming feeds; the
// time-cycle schedule covers both directions, and leftover slack carries
// best-effort traffic (§3.1.2).
//
//   $ ./pvr_server [playback_streams] [recording_streams]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "device/device_catalog.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "server/timecycle_server.h"

int main(int argc, char** argv) {
  using namespace memstream;

  const std::int64_t playing = argc > 1 ? std::atoll(argv[1]) : 60;
  const std::int64_t recording = argc > 2 ? std::atoll(argv[2]) : 20;
  const std::int64_t n = playing + recording;
  const BytesPerSecond b = 1 * kMBps;  // DVD-rate both ways

  device::DiskParameters params = device::FutureDisk2007();
  params.inner_rate = params.outer_rate;
  auto disk = device::DiskDrive::Create(params);
  if (!disk.ok()) return 1;

  // The cycle covers one IO per stream regardless of direction.
  auto cycle =
      model::IoCycleLength(n, b, model::DiskProfile(disk.value(), n));
  if (!cycle.ok()) {
    std::fprintf(stderr, "infeasible: %s\n",
                 cycle.status().ToString().c_str());
    return 1;
  }
  std::printf("PVR workload: %lld playback + %lld recording DVD streams\n",
              static_cast<long long>(playing),
              static_cast<long long>(recording));
  std::printf("Theorem 1 cycle for N=%lld: %.1f ms (%.2f MB per stream "
              "per cycle)\n\n",
              static_cast<long long>(n), ToMs(cycle.value()),
              ToMB(b * cycle.value()));

  std::vector<server::StreamSpec> streams;
  const Bytes stride = disk.value().Capacity() * 0.9 /
                       static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    server::StreamSpec s;
    s.id = i;
    s.bit_rate = b;
    s.disk_offset = stride * static_cast<double>(i);
    s.extent = std::max(stride, 3 * b * cycle.value() * 1.25);
    s.direction = i < playing ? server::StreamDirection::kRead
                              : server::StreamDirection::kWrite;
    streams.push_back(s);
  }

  server::DirectServerConfig config;
  // 25% above the Theorem-1 minimum: a bit more DRAM per stream buys
  // slack that the best-effort filler can use (at the exact minimum the
  // schedule has none to give).
  config.cycle = cycle.value() * 1.25;
  config.best_effort_io = 256 * kKB;
  auto server =
      server::DirectStreamingServer::Create(&disk.value(), streams, config);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  const Seconds horizon = 60;
  if (!server.value().Run(horizon).ok()) return 1;

  const server::ServerReport& report = server.value().report();
  std::printf("Simulated %.0f s:\n", horizon);
  std::printf("  playback underflows:   %lld (%.3f s)\n",
              static_cast<long long>(report.qos.underflow_events),
              report.qos.underflow_time);
  std::printf("  recording overflows:   %lld (%.3f s)\n",
              static_cast<long long>(report.qos.overflow_events),
              report.qos.overflow_time);
  std::printf("  cycle overruns:        %lld\n",
              static_cast<long long>(report.disk.overruns));
  std::printf("  best-effort served:    %lld IOs (%.1f MB)\n",
              static_cast<long long>(report.best_effort_ios),
              ToMB(report.best_effort_bytes));
  std::printf("  disk utilization:      %.0f%%\n",
              100 * report.disk.utilization);

  Bytes captured = 0;
  for (const auto& r : server.value().record_sessions()) {
    captured += r.total_drained();
  }
  std::printf("  captured to disk:      %.1f MB across %zu recorders\n",
              ToMB(captured), server.value().record_sessions().size());

  const bool clean =
      report.qos.underflow_events == 0 && report.qos.overflow_events == 0;
  std::printf("\n%s\n", clean
                            ? "Jitter-free playback and loss-free capture "
                              "on one schedule."
                            : "Schedule violated real-time constraints!");
  return clean ? 0 : 2;
}
