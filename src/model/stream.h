// Stream classes used throughout the paper's evaluation (§5): mp3 at
// 10 KB/s, DivX at 100 KB/s, DVD at 1 MB/s, HDTV at 10 MB/s — all CBR.

#ifndef MEMSTREAM_MODEL_STREAM_H_
#define MEMSTREAM_MODEL_STREAM_H_

#include <string>
#include <vector>

#include "common/units.h"

namespace memstream::model {

/// A constant-bit-rate stream class.
struct StreamClass {
  std::string name;
  BytesPerSecond bit_rate = 0;
};

/// mp3 audio, 10 KB/s.
StreamClass Mp3();
/// DivX (MPEG-4) video, 100 KB/s.
StreamClass DivX();
/// DVD-quality MPEG-2 video, 1 MB/s.
StreamClass Dvd();
/// High-definition video, 10 MB/s.
StreamClass Hdtv();

/// The four classes above, in increasing bit-rate order (the series of
/// Figs. 6-8).
std::vector<StreamClass> PaperStreamClasses();

}  // namespace memstream::model

#endif  // MEMSTREAM_MODEL_STREAM_H_
