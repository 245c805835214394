#include "device/device_catalog.h"

namespace memstream::device {

DiskParameters FutureDisk2007() {
  DiskParameters p;
  p.name = "FutureDisk";
  p.rpm = 20000;
  p.outer_rate = 300 * kMBps;
  p.inner_rate = 170 * kMBps;  // Table 1, 2007: 170-300 MB/s
  p.capacity = 1000 * kGB;
  p.track_to_track_seek = 0.3 * kMillisecond;
  p.average_seek = 2.8 * kMillisecond;
  p.full_stroke_seek = 7.0 * kMillisecond;
  p.num_cylinders = 100000;
  p.num_zones = 16;
  return p;
}

MemsParameters MemsG3() {
  MemsParameters p;
  p.name = "G3 MEMS";
  p.transfer_rate = 320 * kMBps;
  p.capacity = 10 * kGB;
  p.x_full_stroke = 0.45 * kMillisecond;
  p.x_settle = 0.14 * kMillisecond;
  p.y_full_stroke = 0.27 * kMillisecond;
  p.num_regions = 2500;
  p.active_tips = 3200;
  p.cost_per_device = 10;
  return p;
}

MemsParameters MemsG1() {
  // Conservative first-generation postulates of Schlosser et al.: slower
  // sled, fewer concurrently active tips.
  MemsParameters p;
  p.name = "G1 MEMS";
  p.transfer_rate = 25.6 * kMBps;
  p.capacity = 2.56 * kGB;
  p.x_full_stroke = 0.56 * kMillisecond;
  p.x_settle = 0.22 * kMillisecond;
  p.y_full_stroke = 0.45 * kMillisecond;
  p.num_regions = 2500;
  p.active_tips = 640;
  p.cost_per_device = 10;
  return p;
}

MemsParameters MemsG2() {
  MemsParameters p;
  p.name = "G2 MEMS";
  p.transfer_rate = 102.4 * kMBps;
  p.capacity = 5.12 * kGB;
  p.x_full_stroke = 0.50 * kMillisecond;
  p.x_settle = 0.18 * kMillisecond;
  p.y_full_stroke = 0.36 * kMillisecond;
  p.num_regions = 2500;
  p.active_tips = 1280;
  p.cost_per_device = 10;
  return p;
}

std::vector<MediaCharacteristicsRow> Table1Rows() {
  return {
      {2002, "DRAM", "0.5", "0.05", "2000", "$200", "$50-$200"},
      {2002, "MEMS", "n/a", "n/a", "n/a", "n/a", "n/a"},
      {2002, "Disk", "100", "1-11", "30-55", "$2", "$100-$300"},
      {2007, "DRAM", "5", "0.03", "10000", "$20", "$50-$200"},
      {2007, "MEMS", "10", "0.4-1", "320", "$1", "$10"},
      {2007, "Disk", "1000", "0.75-7", "170-300", "$0.2", "$100-$300"},
  };
}

std::vector<DeviceCharacteristics2007> Table3Columns() {
  return {
      {"FutureDisk", "20000", 300, "2.8", "7.0", "-", 1000, 0.2,
       "$100-$300"},
      {"G3 MEMS", "-", 320, "-", "0.45", "0.14", 10, 1, "$10"},
      {"DRAM", "-", 10000, "-", "-", "-", 5, 20, "$50-$200"},
  };
}

}  // namespace memstream::device
