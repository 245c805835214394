#include "model/stream.h"

namespace memstream::model {

StreamClass Mp3() { return {"mp3", 10 * kKBps}; }
StreamClass DivX() { return {"DivX", 100 * kKBps}; }
StreamClass Dvd() { return {"DVD", 1 * kMBps}; }
StreamClass Hdtv() { return {"HDTV", 10 * kMBps}; }

std::vector<StreamClass> PaperStreamClasses() {
  return {Mp3(), DivX(), Dvd(), Hdtv()};
}

}  // namespace memstream::model
