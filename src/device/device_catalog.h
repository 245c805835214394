// Device presets and paper tables. The presets are the devices the
// simulations run: Table 3's 2007 case-study disk (Maxtor-projected
// FutureDisk) and CMU G3 MEMS, plus the earlier CMU MEMS generations
// (G1/G2 from Schlosser et al., ASPLOS 2000). DRAM is never simulated as
// a device: the servers count it only as buffer bytes and its price, so
// it appears here only as rows of Table 1 (2002 and predicted-2007 media
// characteristics) and a column of Table 3.
//
// Note on Table 3's capacity row: the published table garbles the
// disk/DRAM capacities; we use disk = 1000 GB and DRAM = 5 GB, which is
// what Table 1 (2007), §5.1.3 ("maximum DRAM size is restricted to 5GB"),
// and Fig. 10 ("each MEMS device can cache 1% of the content") all imply.

#ifndef MEMSTREAM_DEVICE_DEVICE_CATALOG_H_
#define MEMSTREAM_DEVICE_DEVICE_CATALOG_H_

#include <string>
#include <vector>

#include "device/disk.h"
#include "device/mems_device.h"

namespace memstream::device {

// --- Table 3 devices (year 2007 case study) -------------------------------

/// Maxtor-projected 2007 disk: 20 000 RPM, 300 MB/s outer zone, 2.8 ms
/// average seek, 7 ms full stroke, 1 TB.
DiskParameters FutureDisk2007();

/// CMU third-generation MEMS device: 320 MB/s, 10 GB, 0.45 ms full-stroke
/// X move, 0.14 ms settle, $10/device.
MemsParameters MemsG3();

// --- Earlier CMU MEMS generations ------------------------------------------

/// First-generation CMU MEMS model (conservative MEMS postulates).
MemsParameters MemsG1();

/// Second-generation CMU MEMS model.
MemsParameters MemsG2();

// --- Table renderings -------------------------------------------------------

/// One row of Table 1 ("Storage media characteristics").
struct MediaCharacteristicsRow {
  int year;                 ///< 2002 or 2007
  std::string medium;       ///< "DRAM", "MEMS", "Disk"
  std::string capacity_gb;  ///< ranges kept as text, as in the paper
  std::string access_time_ms;
  std::string bandwidth_mbps;
  std::string cost_per_gb;
  std::string cost_per_device;
};

/// The six rows of Table 1, in paper order.
std::vector<MediaCharacteristicsRow> Table1Rows();

/// One column of Table 3 ("Performance characteristics ... in 2007").
struct DeviceCharacteristics2007 {
  std::string name;
  std::string rpm;
  double max_bandwidth_mbps;
  std::string average_seek_ms;
  std::string full_stroke_seek_ms;
  std::string x_settle_ms;
  double capacity_gb;
  double cost_per_gb;
  std::string cost_per_device;
};

/// The three columns of Table 3 (FutureDisk, G3 MEMS, DRAM).
std::vector<DeviceCharacteristics2007> Table3Columns();

}  // namespace memstream::device

#endif  // MEMSTREAM_DEVICE_DEVICE_CATALOG_H_
